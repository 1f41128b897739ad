#!/usr/bin/env bash
# Entry point of the benchmark contract (BENCHMARK.json "command"):
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the bench from the checkout it lives in and runs it from the
# checkout's root. Everything the build leaves behind — the binary and
# Go's build cache — goes under .bench_build in the checkout, so a run
# reads and writes nothing outside it. The first run in a checkout
# compiles the standard library too; later runs rebuild in well under a
# second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

# Go's telemetry is switched off for this private config directory before
# the go command first runs: in its default "local" mode the first go
# command to see a new config directory starts a detached `go` side process
# that outlives it, and a run must leave no process behind.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false \
GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/onll-bench" ./bench

exec "$build/onll-bench" "$@"
