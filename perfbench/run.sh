#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload switch-plane --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, traces) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
export GOTELEMETRY=off

# Build output goes to stderr: the last line of stdout is the result.
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
