#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"), run from the root of
# a checkout: builds the benchmark from source with every byte the Go tool
# writes kept inside the checkout, then runs it with the arguments given.
# In a directory without the repository's go.mod there is nothing to build:
# the script fails before it starts any process, printing no result.
set -euo pipefail
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod here: run from the root of a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With a fresh config directory the go command would fork a telemetry
# sidecar that outlives it; the mode file turns that off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
