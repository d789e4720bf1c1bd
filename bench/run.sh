#!/usr/bin/env bash
# The acceptance driver's entry point (BENCHMARK.json "command"): build the
# benchmark inside the checkout, then run it with the driver's arguments.
# Everything the go tool writes — build cache, temporary files, the binary —
# goes under .bench_build/ in the checkout; developers can as well run
# `go run ./bench` directly.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/perfbench" ./bench
exec "$build/perfbench" "$@"
