#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments (see perfbench/README.md). Run it from the repository root:
#
#   bash perfbench/run.sh --workload tcpip-findfix --seed 1 --seconds 30 --trace 0
#
# Every build artifact and cache lives under .bench_build/ in the
# current directory, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
