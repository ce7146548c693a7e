#!/bin/sh
# Prints the size of the program: non-test Go lines outside bench/ (the repo
# benchmark, a separate module), raw and without comment-only and blank lines.
# This is the number a simplicity PR reports before and after (ROADMAP "quality
# of design"). Block comments are rare in this tree and are counted as code.
# The second line is the gate surface: shell lines under scripts/, make
# targets, and top-level Test/Benchmark functions in the root package.
set -eu

cd "$(dirname "$0")/.."

files=$(find . -name '*.go' -not -name '*_test.go' \
    -not -path './bench/*' -not -path './.bench_build/*' | sort)
raw=$(cat $files | wc -l)
code=$(cat $files | grep -cvE '^[[:space:]]*(//.*)?$')
echo "non-test Go lines outside bench/: $raw raw, $code non-comment non-blank"

shell=$(cat scripts/*.sh | wc -l)
targets=$(grep -cE '^[a-z][a-z0-9-]*:' Makefile)
funcs=$(cat ./*_test.go | grep -cE '^func (Test|Benchmark)')
echo "gate surface: $shell shell lines under scripts/, $targets make targets, $funcs root-package Test/Benchmark funcs"
