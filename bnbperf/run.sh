#!/usr/bin/env bash
# Builds bnbserve and the bnbperf load generator from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash bnbperf/run.sh --workload hot-m5 --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/bnbserve/main.go || ! -f bnbperf/go.mod ]]; then
	echo "bnbperf: run from the repository root; cmd/bnbserve not found" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go build -o "$out/bnbserve" ./cmd/bnbserve >&2
(cd bnbperf && go build -o "$out/bnbperf" .) >&2
exec "$out/bnbperf" --server "$out/bnbserve" "$@"
