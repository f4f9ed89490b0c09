#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload play-lossy --seed 1 --seconds 30 --trace 0
#
# Every build artefact, the Go build cache, module path and the go
# command's own config and telemetry files included, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
