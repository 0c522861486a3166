#!/usr/bin/env bash
# Builds the live-mesh benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the checkout root:
#
#   bash _livebench/run.sh --workload signed-small --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(pwd)"
src="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build/livebench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off GOTELEMETRY=off

(cd "$src" && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
