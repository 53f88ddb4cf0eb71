#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (compiled binary, Go build cache, temporary files) stays under .bench_build
# at the repository root, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/mtpbench" .)
exec "$build/mtpbench" -home "$here" "$@"
