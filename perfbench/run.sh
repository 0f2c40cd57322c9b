#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
