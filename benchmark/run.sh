#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it with the given arguments. Go's build cache and temporary files are kept
# there too, so a run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-buildvcs=false
go build -C benchmark -o "$build/fountain-benchmark" .
exec "$build/fountain-benchmark" "$@"
