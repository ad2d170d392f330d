#!/usr/bin/env bash
# Builds kcore-serve and the benchmark from this checkout's sources, then
# runs one benchmark workload; every argument is passed on, e.g.
#
#   bash kcbench/run.sh --workload paper-churn --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# per-run scratch all stay under .bench_build/ in the checkout.
set -euo pipefail

# The toolchain's documented default install location, for shells whose
# PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/run" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

# With telemetry on (the default "local" mode) the go command starts a
# detached upload process that can outlive it; turning telemetry off in this
# private config directory keeps every process the build starts its child.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/kcore-serve" ./cmd/kcore-serve >&2
(cd kcbench && go build -o "$out/bin/kcbench" .) >&2

exec "$out/bin/kcbench" --serve-bin "$out/bin/kcore-serve" --work-dir "$out/run" "$@"
