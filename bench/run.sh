#!/usr/bin/env bash
# Builds meshbench from this checkout and runs it with the given flags.
# Run from the checkout root:
#
#   bash bench/run.sh --workload e1-81 --seed 1 --seconds 20 --trace 0
#
# A run writes only inside its checkout, so the Go build cache and the
# compiler's temporary files live under .bench_build next to the binary.
# The build never reaches the network and ignores any user go.env or
# go.work file.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C bench build -o "$out/meshbench" .
exec "$out/meshbench" "$@"
