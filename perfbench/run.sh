#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument passes through (see README.md). Run it from the checkout root:
#
#	bash perfbench/run.sh --workload chips-s9234 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out "$build" "$@"
