#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#	bash benchmark/run.sh --workload report-8h --seed 1 --seconds 28 --trace 0
#
# Every file the build and the runs write stays under .bench_build in the
# repository root: the Go build cache, the binaries, temp files and the
# toolchain's own state. The CLIs under test are built by the benchmark
# itself, from the same tree, before anything is timed.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/cache/go-build" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
go -C benchmark build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -root "$root" -build "$out" "$@"
