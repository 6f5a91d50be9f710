#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Everything the Go toolchain writes (build cache, temp files, binary)
# stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
# No VCS stamping: it fails the build where git cannot read a parent
# directory's repository. The commit, where there is one, goes in the
# run header through the environment instead.
(cd "$root/benchmark" && go build -buildvcs=false -o "$build/sjbenchmark" .)
BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/sjbenchmark" "$@"
