#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload fork-server --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own state all stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
