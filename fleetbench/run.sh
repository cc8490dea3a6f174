#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given flags,
# e.g. bash fleetbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache, the binary, run records and
# spans.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/fleetbench" && go build -o "$build/bin/fleetbench" .)
cd "$root"
exec "$build/bin/fleetbench" "$@"
