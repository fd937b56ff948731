#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# writes (Go build cache included) stays under .bench_build in the
# checkout; the program runs from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/vini-benchmark" .)
cd "$root"
exec "$build/vini-benchmark" "$@"
