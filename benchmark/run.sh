#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. The Go build
# cache and temporary directory are put under .bench_build so that building
# and running write nothing outside the checkout; all arguments go to the
# benchmark (see main.go).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
cd "$here"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
