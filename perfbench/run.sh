#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sort --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build cache, module cache
# and every other file the toolchain writes go under .bench_build/, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
