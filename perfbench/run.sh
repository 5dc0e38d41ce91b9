#!/usr/bin/env bash
# Builds the MIX benchmark from the sources of the checkout it runs in
# and runs one workload:
#
#   bash perfbench/run.sh --workload core-explore --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache
# and the go command's configuration directory (telemetry counters) go
# to .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a MIX checkout (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
