#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; every argument goes to the benchmark binary:
#
#   bash perfbench/run.sh --workload topk-zipf --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare runs-a runs-b
#
# The Go build cache, the go command's own config and telemetry files,
# the binary and every file a run writes stay under .bench_build in the
# current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
