#!/usr/bin/env bash
# A/A check: run two full sets of the same code back to back, the way the
# benchmark driver does (RUNS runs per workload, each with another seed), and
# print per workload x end-to-end metric the two medians, their ratio, the
# spread of each set (inter-quartile distance over the median) and the bound
# from BENCHMARK.json. Exits non-zero if a second median is worse than the
# first by more than the bound, or a spread (setup_s excepted) exceeds it.
#
#   bash bench/aa.sh                 # 10 runs x 4 workloads x 2 sets, ~40 min
#   RUNS=5 SECONDS_PER_RUN=10 WORKLOADS="sim_soak sim_lossy" KEEP=/tmp/aa bash bench/aa.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-10}"
out="${KEEP:-}" # set KEEP=dir to keep every run's result line
if [ -z "$out" ]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"
rm -f "$out"/[AB].*.jsonl
seconds="${SECONDS_PER_RUN:-$(python3 -c "import json;print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
workloads="${WORKLOADS:-$(python3 -c "import json;print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")}"

for set in A B; do
  for w in $workloads; do
    for ((i = 0; i < runs; i++)); do
      seed=$((1000 + i))
      bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$set.$w.jsonl"
    done
  done
done

python3 - "$root/BENCHMARK.json" "$out" "$runs" "$seconds" "$workloads" <<'EOF'
import json, statistics, sys
decl = json.load(open(sys.argv[1]))
out, runs, seconds = sys.argv[2], sys.argv[3], sys.argv[4]
print(f"A/A: two sets of {runs} runs x {seconds} s per workload, seeds 1000..{999 + int(runs)}")
print(f"{'workload':10} {'metric':15} {'median A':>14} {'median B':>14} {'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
bad = 0
for w in decl["workloads"]:
    if w["name"] not in sys.argv[5].split():
        continue
    sets = {}
    for s in "AB":
        rows = [json.loads(l) for l in open(f"{out}/{s}.{w['name']}.jsonl")]
        wrong = [r for r in rows if not r["correct"] or r["failed"]]
        if wrong:
            print(f"{w['name']}: set {s} has {len(wrong)} incorrect runs")
            bad += 1
        sets[s] = rows
    for m in decl["end_to_end"]:
        med, spread = {}, {}
        for s in "AB":
            v = [r["metrics"][m["name"]]["value"] for r in sets[s]]
            med[s] = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread[s] = (q[2] - q[0]) / med[s]
        ratio = med["B"] / med["A"]
        worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
        verdict = "ok"
        if worse > m["bound"]:
            verdict = "MEDIAN DRIFT"
        elif m["name"] != "setup_s" and max(spread.values()) > m["bound"]:
            verdict = "SPREAD"
        elif m["name"] != "setup_s" and max(spread.values()) > m["bound"] / 3:
            verdict = "ok (spread above a third of the bound)"
        bad += verdict in ("MEDIAN DRIFT", "SPREAD")
        print(f"{w['name']:10} {m['name']:15} {med['A']:14.4f} {med['B']:14.4f} {ratio:7.4f} {spread['A']:9.4f} {spread['B']:9.4f} {m['bound']:6.2f}  {verdict}")
sys.exit(1 if bad else 0)
EOF
