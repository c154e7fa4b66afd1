#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload wire-volatile --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the go command's own
# configuration and telemetry files, the binary, the durable workload's
# data and the traced runs' span files all stay under .bench_build in that
# directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
