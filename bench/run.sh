#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write (Go build cache, binary, scratch stores) stays under
# .bench_build/ in the current checkout, which is the directory this
# script is started from: bash bench/run.sh --workload loaded --seed 1 ...
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$src" -o "$out/hxbench" .
exec "$out/hxbench" "$@"
