#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# repository root. Everything the build writes — the Go build cache and the
# binary — goes under .bench_build/ in the checkout; nothing is downloaded
# (the module has no dependencies outside the repository).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/windowbench" .
cd "$root"
exec "$build/windowbench" "$@"
