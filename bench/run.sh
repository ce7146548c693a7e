#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout (build cache included), then run it with the driver's flags.
#   bash bench/run.sh --workload live_rr --seed 3 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays under .bench_build; nothing is
# downloaded (the module needs only the standard library and this repository).
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$build/adaptive-bench" .
exec "$build/adaptive-bench" "$@"
