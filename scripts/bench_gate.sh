#!/usr/bin/env bash
# bench_gate.sh — copy the committed BENCH_*.json baselines aside,
# re-run every benchmark suite (which overwrites those files in place),
# then let cmd/benchgate compare the fresh measurements against the
# saved copies. Exit 1 on a critical regression.
#
#   BENCHTIME=0.5s scripts/bench_gate.sh
#
# Run from the repo root on a clean checkout: the baselines are every
# tracked internal/*/BENCH_*.json as it stands in the working tree, which
# in CI is the committed state. benchgate finds them under $BASE itself;
# a new writer needs no entry here beyond its `go test` line.
set -euo pipefail

BASE=${BASE:-.benchgate/baseline}
BENCHTIME=${BENCHTIME:-0.5s}

rm -rf "$BASE"
found=0
for f in $(git ls-files 'internal/*/BENCH_*.json'); do
  mkdir -p "$BASE/$(dirname "$f")"
  cp "$f" "$BASE/$f"
  found=$((found + 1))
done
if [ "$found" -eq 0 ]; then
  echo "bench_gate: no committed BENCH baselines found; nothing to gate" >&2
  exit 1
fi
echo "bench_gate: saved $found baseline(s) under $BASE; re-running benches at -benchtime=$BENCHTIME"

go test -run='^$' -bench=. -benchmem -benchtime="$BENCHTIME" ./internal/bsp/
go test -run='^$' -bench=. -benchmem -benchtime="$BENCHTIME" ./internal/kernels/
go test -run='^$' -bench=. -benchmem -benchtime="$BENCHTIME" ./internal/service/
# Any matched benchmark makes the transport TestMain regenerate
# BENCH_transport.json with its full local/tcp sweep at
# $BENCHTIME, so the named run is kept minimal.
go test -run='^$' -bench='ExchangeLocal/p=2/w=64$' -benchtime="$BENCHTIME" ./internal/transport/
# The fleet scorecard is a scripted scenario, not a timing loop: one
# iteration regenerates the deterministic counts.
go test -run='^$' -bench=. -benchtime=1x ./internal/shard/

go run ./cmd/benchgate -baseline "$BASE" -current .
