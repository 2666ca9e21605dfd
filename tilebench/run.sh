#!/usr/bin/env bash
# Builds tilingd and the tilebench harness from this checkout, then runs
# the benchmark. Run it from the repository root:
#
#   bash tilebench/run.sh --workload search-heavy --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and the daemons' state directories
# all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
bench="$root/tilebench"
out="$root/.bench_build/tilebench"
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# in the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$bench" && go build -o "$out/tilebench" . && go build -o "$out/tilingd" repro/cmd/tilingd)
exec "$out/tilebench" --daemon "$out/tilingd" --work "$out/work" "$@"
