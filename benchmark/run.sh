#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the benchmark (a module of its own that imports the repository's
# packages from source) into .bench_build/ and runs it. Everything the Go
# toolchain writes — build cache, module cache, its own counters — is kept
# under .bench_build/ too, so a run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
