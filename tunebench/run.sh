#!/usr/bin/env bash
# Builds the tuning benchmark from source and runs it from the root of the
# checkout:
#
#   bash tunebench/run.sh --workload paper-meta --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and GOPATH, the Go tool's own config
# and telemetry files, and the engine's scratch databases all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/tunebench" && go build -o "$out/tunebench" .)
exec "$out/tunebench" -scratch "$out" "$@"
