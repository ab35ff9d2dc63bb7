#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash wabench/run.sh --workload paper-w1 --seed 1 --seconds 20 --trace 0
#
# The build, the Go caches and the CPU profiles stay under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C wabench build -o "$out/wabench" .
exec "$out/wabench" "$@"
