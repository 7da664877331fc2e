#!/usr/bin/env bash
# Builds and runs the benchmark; run it from the repository root:
#
#   bash unibench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
#
# Equivalent to `go -C unibench run . <flags>`, except that the build
# cache, the Go configuration directory and the binary all live under
# .bench_build/ in the checkout, so nothing is written outside it. The
# first run fills the cache (about a minute); later runs reuse it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/unibench" build -o "$out/unibench" .
exec "$out/unibench" "$@"
