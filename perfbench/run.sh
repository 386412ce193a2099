#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go tool writes — binary, build and module caches, temp
# files, telemetry counters (under XDG_CONFIG_HOME) — stays under
# .bench_build at the checkout root; all flags pass through, e.g.
#   bash perfbench/run.sh --workload serve-mix --seed 3 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
