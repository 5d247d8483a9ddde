#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root: bash bench/run.sh -workload batch-wide -seed 1
# Everything the build and the run write stays inside the checkout
# (.bench_build/ and bench/out/).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/drapid-bench" .
exec "$build/drapid-bench" "$@"
