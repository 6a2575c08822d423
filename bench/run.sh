#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): build pbiperf from
# source inside the checkout, then run it with the driver's arguments.
# Everything the Go toolchain writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$build/pbiperf" ./cmd/pbiperf >&2
exec "$build/pbiperf" "$@"
