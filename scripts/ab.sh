#!/usr/bin/env bash
# ab.sh — paired A/B runs of the end-to-end benchmark: a base revision
# against this working tree.
#
#   scripts/ab.sh <base-rev> <pairs> -- <benchmark/run.sh args>
#   scripts/ab.sh HEAD~1 10 -- --workload fleet_tcp --seed 1
#
# The base revision is checked out with `git worktree add --detach` into
# a temporary directory, removed again on exit. Each pair runs the base
# tree's benchmark/run.sh and this tree's once with the same arguments,
# alternating which side goes first. Each run's contract line (the JSON
# object run.sh prints last) is echoed as it arrives; the summary gives,
# per end-to-end metric of this tree's BENCHMARK.json, the median of each
# side, the base runs' interquartile range, and in how many pairs this
# tree's run was the better one. Nothing under benchmark/ is changed:
# each tree builds and runs its own copy, as run.sh always does.
set -euo pipefail

usage() {
	echo "usage: $0 <base-rev> <pairs> -- <benchmark/run.sh args>" >&2
	exit 2
}
[ $# -ge 3 ] && [ "$3" = "--" ] || usage
rev=$1
pairs=$2
shift 3
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

head=$(git rev-parse --show-toplevel)
base_commit=$(git -C "$head" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
cleanup() {
	# run.sh's build tree can hold read-only files (the Go module cache).
	chmod -R u+w "$tmp" 2>/dev/null || true
	git -C "$head" worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
	git -C "$head" worktree prune
}
trap cleanup EXIT
git -C "$head" worktree add --quiet --detach "$tmp/base" "$base_commit"

# run <side> <tree>: one benchmark run, its contract line kept in
# $tmp/<side>.jsonl.
run() {
	local line
	line=$(bash "$2/benchmark/run.sh" "${@:3}" | tail -n 1)
	echo "$1 $line"
	echo "$line" >>"$tmp/$1.jsonl"
}

for ((i = 1; i <= pairs; i++)); do
	echo "# pair $i of $pairs" >&2
	if ((i % 2)); then
		run base "$tmp/base" "$@"
		run head "$head" "$@"
	else
		run head "$head" "$@"
		run base "$tmp/base" "$@"
	fi
done

python3 - "$head/BENCHMARK.json" "$tmp/base.jsonl" "$tmp/head.jsonl" "$base_commit" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(l) for l in open(sys.argv[2])]
head = [json.loads(l) for l in open(sys.argv[3])]

def quartiles(xs):
    xs = sorted(xs)
    def q(f):
        k = f * (len(xs) - 1)
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.75)

print(f"# {len(base)} pairs, base {sys.argv[4][:7]} vs this tree; wins = pairs where this tree's run is better")
print(f"{'metric':<18} {'unit':<6} {'base_median':>12} {'head_median':>12} {'change':>8} {'base_IQR':>10} {'wins':>6}")
for m in spec["end_to_end"]:
    name = m["name"]
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    lower = m["better"] == "lower"
    wins = sum((hv < bv) if lower else (hv > bv) for bv, hv in zip(b, h))
    bm, hm = statistics.median(b), statistics.median(h)
    q1, q3 = quartiles(b)
    change = f"{(hm - bm) / bm * 100:+.1f}%" if bm else "n/a"
    print(f"{name:<18} {m['unit']:<6} {bm:>12.6g} {hm:>12.6g} {change:>8} {q3 - q1:>10.4g} {wins:>3}/{len(b)}")
failed = sum(r["failed"] for r in base + head)
if failed:
    print(f"# {failed} failed operations across the runs")
PY
