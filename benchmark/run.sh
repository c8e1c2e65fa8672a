#!/usr/bin/env bash
# What BENCHMARK.json runs: build the benchmark from source and run it
# with the arguments given. It is `go run ./benchmark` for a caller that
# may read and write only inside the checkout: the toolchain's build
# cache, work directory and own files go to .bench_build/ there instead
# of $HOME and /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"
# With a fresh config directory the go command starts a telemetry
# sidecar that outlives it; no process may be left behind a run, so
# switch telemetry off there first (this command starts none itself).
go telemetry off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
