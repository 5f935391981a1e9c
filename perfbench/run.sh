#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# argument passes through, e.g.
#
#   bash perfbench/run.sh --workload cold-local --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# span files all stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
