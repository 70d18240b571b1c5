#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload word|wechat|push --seed N --seconds S --trace 0|1
#
# Everything the build and the run write goes under .bench_build in the
# current directory. A failed build exits nonzero without printing a result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
