#!/bin/sh
# Runs the packet-path and kernel micro-benchmarks with -benchmem -count=3
# and distills the raw `go test` output into BENCH_datapath.json: a meta
# header (go version, GOMAXPROCS, CPU model, exact commit) plus ONE object
# per benchmark name — the best (lowest ns/op) of the COUNT runs, since wall
# time is the only noisy axis and keeping the per-run spread just teaches
# the comparison script to forgive noise. One object per line so
# scripts/bench_compare.sh can diff runs with awk alone.
set -eu

cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"

PATTERN='BenchmarkWireEncodeTo|BenchmarkWireDecodeInto|BenchmarkChecksums|BenchmarkMessagePushPop|BenchmarkMessageSplitClone|BenchmarkNetsimPacketForwarding|BenchmarkSimKernelEvents|BenchmarkKernelChurn|BenchmarkE13_ArbiterGrant'

go test -run '^$' -bench "$PATTERN" -benchmem -count="$COUNT" . | tee BENCH_datapath.txt

GOVER=$(go version | awk '{print $3}')
MAXPROCS=${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}
CPU=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || echo unknown)
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
git diff --quiet HEAD 2>/dev/null || COMMIT="${COMMIT}-dirty"

awk -v gover="$GOVER" -v maxprocs="$MAXPROCS" -v cpu="$CPU" -v commit="$COMMIT" '
BEGIN {
    printf "{\n  \"meta\": {\"go\": \"%s\", \"gomaxprocs\": %s, \"cpu\": \"%s\", \"commit\": \"%s\"},\n", gover, maxprocs, cpu, commit
    print "  \"results\": ["
}
/^Benchmark/ {
    name = $1; nsop = ""; bop = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     nsop   = $(i-1)
        if ($i == "B/op")      bop    = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (nsop == "") next
    # Keep the best (lowest ns/op) of the COUNT runs per name.
    if (!(name in best) || nsop + 0 < best[name]) {
        best[name] = nsop + 0
        if (!(name in order)) { order[name] = ++n; names[n] = name }
        rec[name] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            name, nsop, (bop == "" ? "null" : bop), (allocs == "" ? "null" : allocs))
    }
}
END {
    for (i = 1; i <= n; i++) printf "%s%s\n", rec[names[i]], (i < n ? "," : "")
    print "  ]\n}"
}
' BENCH_datapath.txt > BENCH_datapath.json

echo "wrote BENCH_datapath.json ($(grep -c '"name"' BENCH_datapath.json) records, best of $COUNT runs)"
