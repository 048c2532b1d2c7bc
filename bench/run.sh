#!/usr/bin/env bash
# Builds the benchmark and the lossyckptd daemon from source into
# .bench_build/ (Go's caches, temp files and telemetry counters included, so
# nothing is written outside the checkout) and runs the benchmark with the
# arguments given. Run it from the root of a checkout:
#   bash bench/run.sh --workload climate5_lossy --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/bin/" . lossyckpt/cmd/lossyckptd) >&2

exec "$build/bin/bench" -daemon "$build/bin/lossyckptd" -dir "$root/bench/out" "$@"
