#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout and runs it with the arguments given. Run from the repository
# root. Everything the build and the run write goes under .bench_build/ and
# benchmark/out/ (both in .gitignore).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/simcloud-benchmark" .)
exec "$build/simcloud-benchmark" "$@"
