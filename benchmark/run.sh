#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it from benchmark/. The binary, the Go build cache, GOPATH and the
# go command's own home (config, telemetry) all live under .bench_build/,
# so nothing is read or written outside the checkout. Arguments go to
# the program:
#   bash benchmark/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home"
cd "$here"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off \
	GOCACHE="$build/go-cache" GOPATH="$build/go-path" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/camc-benchmark" .
BENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/camc-benchmark" "$@"
