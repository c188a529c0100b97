#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root: bash bench/run.sh --workload oltp-sql ...
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/dmx-bench" .)
exec "$build/dmx-bench" "$@"
