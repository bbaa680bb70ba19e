#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload gw-zipf --seed 1 --seconds 10 --trace 0
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
