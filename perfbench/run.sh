#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sched-overload --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Build products, the Go build cache and
# trace files stay inside the checkout (.bench_build/ and .bench_out/). The
# benchmark module replaces "atlarge" with the parent directory, so without
# the program's sources next to it the build fails and nothing is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters in
# the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$root/.bench_out" "$@"
