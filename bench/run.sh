#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Everything the Go toolchain writes (build cache,
# temporary files, the binary) goes under .bench_build in that checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
