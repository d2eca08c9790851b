#!/usr/bin/env bash
# Builds cbwsbench and cbwsd from source and runs one benchmark workload.
#
#   bash bench/run.sh --workload matrix-live --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# and the benchmark's scratch files stay under .bench_build/ in the
# current directory, so nothing outside the checkout is read or written
# beyond the Go toolchain itself.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/bench" ]]; then
	echo "run.sh: run from the repository root (go.mod and bench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

(cd "$root/bench" && go build -o "$out/cbwsbench" .)
go build -o "$out/cbwsd" ./cmd/cbwsd

exec "$out/cbwsbench" -root "$root" -cbwsd "$out/cbwsd" "$@"
