#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build leaves behind (binary, Go build cache) stays under
# .bench_build/ in the checkout; the benchmark's own outputs go to bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/egobench" .)
exec "$build/egobench" "$@"
