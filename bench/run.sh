#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it: the entry point
# BENCHMARK.json names. Everything the build leaves behind (Go's build
# cache included) goes under .bench_build/, so a run reads and writes
# nothing outside the checkout. People can simply `go run ./bench`.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/polaris-bench" ./bench
exec "$build/polaris-bench" "$@"
