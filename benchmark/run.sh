#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout (the Go build cache and temporary files included, so nothing is
# written outside it) and run it with the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/mdbench" ./benchmark
exec "$build/mdbench" "$@"
