#!/bin/sh
# Prints every function no gate runs: 0 % in one profile merged from
# `go test ./...`, `make live`'s two lines and `make cli-smoke`. Exits 1 for
# any outside cmd/ and examples/ that the list below does not excuse. A body
# of `{}` has no statement for a profile to count and is not listed.
set -eu
cd "$(dirname "$0")/.."
allow='
mechanism/mechtest/mechtest.go:Rand  fake of Env.Rand, which no mechanism reads; bench/ sets session.Params.Rand
mediasync/mediasync.go:String        String() on a debug type
message/message.go:String            String() on a debug type
netsim/faults.go:String              String() on a debug type
protograph/protograph.go:Synth       read only by bench/counters.go
wire/wire.go:String                  String() on a debug type
'
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
cover='-cover -covermode=atomic -coverpkg=./...' # atomic: what -race forces, and one merge takes one mode
go test -count=1 $cover ./... -args -test.gocoverdir="$d" >/dev/null
go test -race -count=1 $cover -run 'TestLive' ./internal/experiment/ -args -test.gocoverdir="$d" >/dev/null
go test -race -count=1 $cover ./internal/udpnet/ ./internal/impair/ -args -test.gocoverdir="$d" >/dev/null
GOFLAGS="$cover" GOCOVERDIR="$d" ./scripts/cli_smoke.sh >/dev/null
go tool covdata textfmt -i="$d" -o "$d/profile"
go tool cover -func="$d/profile" | awk -v allow="$allow" '
BEGIN { n = split(allow, l, "\n"); for (i = 1; i <= n; i++) { split(l[i], f, " "); if (f[1] != "") ok["adaptive/internal/" f[1]] = 1 } }
$NF == "0.0%" {
    split($1, p, ":"); cmd = "sed -n " p[2] "p " substr(p[1], 10); cmd | getline src; close(cmd)
    if (src ~ /\{\}( \/\/.*)?$/) next
    if ($1 ~ /^adaptive\/(cmd|examples)\//) { main++; print "  main  " $1, $2 }
    else if ((p[1] ":" $2) in ok) { allowed++; print "  allow " $1, $2 }
    else { bad++; print "  FAIL  " $1, $2 }
}
END {
    printf "functions at 0%%: %d outside cmd/ and examples/ (%d allow-listed), %d inside\n", allowed + bad, allowed, main
    exit bad > 0
}'
