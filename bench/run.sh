#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments.
# BENCHMARK.json names this script: the driver calls it from the root of a
# checkout. The Go build cache and the binary stay under .bench_build/ in
# that checkout, so nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
cd "$here"
go build -o "$build/lemur-harness" .
exec "$build/lemur-harness" "$@"
