#!/usr/bin/env bash
# Entry point for BENCHMARK.json's command: builds ./bench from the checkout
# it is started in and runs it with the arguments given. Go's build cache and
# temporary files are kept under .bench_build/, like every file a run writes,
# so nothing outside the checkout is touched. By hand, `go run ./bench …`
# does the same with the user's own build cache.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
