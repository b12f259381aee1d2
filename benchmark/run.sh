#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, like every other file the build touches) and runs it from
# the repository root. Arguments pass through unchanged:
#
#   bash benchmark/run.sh --workload cold_fuse --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh                 # all five workloads, human-readable
#   bash benchmark/run.sh -trace 1        # ... plus the per-layer traced run
#   bash benchmark/run.sh -check | -agree
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C "$here" -o "$build/hummer-benchmark" .
cd "$root"
exec "$build/hummer-benchmark" "$@"
