#!/usr/bin/env bash
# ab.sh — paired A/B runs of the end-to-end benchmark: a base revision
# against this working tree.
#
#   scripts/ab.sh <base-rev> <pairs> -- <benchmark/run.sh args>
#   scripts/ab.sh HEAD~1 10 -- --workload fleet_tcp --seed 1
#   scripts/ab.sh --summary <base.jsonl> <head.jsonl>
#
# The base revision is exported with `git archive` into a temporary
# directory ($TMPDIR), removed again on exit. Each pair runs the base
# tree's benchmark/run.sh and this tree's once with the same arguments,
# alternating which side goes first. Each run's contract line (the JSON
# object run.sh prints last) is echoed as it arrives, after "base " or
# "head "; --summary reads those lines back from two files, one side
# each, without the prefix. Nothing under benchmark/ is changed: each
# tree builds and runs its own copy, as run.sh always does.
#
# The summary gives, per end-to-end metric of this tree's BENCHMARK.json,
# the median of each side, the base runs' interquartile range, the pairs
# this tree won and lost (a tie counts as neither), the exact one-sided
# sign-test p of that split, and a verdict: "gain" when this tree won at
# least 9 in 10 of the untied pairs, its median is better by more than
# the base IQR and it failed no more operations than the base; "WORSE"
# when its median is worse by more than the metric's bound; "-"
# otherwise. Failed operations are counted per side. Every per_layer
# metric the contract lines carry (a --trace 1 run's) follows in the
# same columns with verdict "-": no bound is declared for them.
set -euo pipefail

usage() {
	echo "usage: $0 <base-rev> <pairs> -- <benchmark/run.sh args>" >&2
	echo "       $0 --summary <base.jsonl> <head.jsonl>" >&2
	exit 2
}

head=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)

# summary <base.jsonl> <head.jsonl> <base label>
summary() {
	python3 - "$head/BENCHMARK.json" "$1" "$2" "$3" <<'PY'
import json, math, statistics, sys

spec = json.load(open(sys.argv[1]))
base = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
head = [json.loads(l) for l in open(sys.argv[3]) if l.strip()]
if not base or len(base) != len(head):
    sys.exit(f"need the same number of runs on each side, have {len(base)} and {len(head)}")

def quartiles(xs):
    xs = sorted(xs)
    def q(f):
        k = f * (len(xs) - 1)
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.75)

def sign_p(wins, n):
    # P(at least `wins` of n fair coins come up heads).
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n if n else 1.0

failed = {side: sum(r["failed"] for r in runs) for side, runs in (("base", base), ("head", head))}
print(f"# {len(base)} pairs, base {sys.argv[4]} vs this tree; won/lost count the pairs where this tree's run is better/worse, ties in neither")
print(f"{'metric':<30} {'unit':<6} {'base_median':>12} {'head_median':>12} {'change':>8} {'base_IQR':>10} {'won':>4} {'lost':>4} {'sign_p':>8}  verdict")
for m in spec["end_to_end"] + spec["per_layer"]:
    name = m["name"]
    if not all(name in r["metrics"] for r in base + head):
        continue
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    sign = -1 if m["better"] == "lower" else 1
    won = sum(sign * (hv - bv) > 0 for bv, hv in zip(b, h))
    lost = sum(sign * (hv - bv) < 0 for bv, hv in zip(b, h))
    bm, hm = statistics.median(b), statistics.median(h)
    q1, q3 = quartiles(b)
    gain = sign * (hm - bm)
    verdict = "-"
    if "bound" not in m:
        pass
    elif won + lost and 10 * won >= 9 * (won + lost) and gain > q3 - q1 and failed["head"] <= failed["base"]:
        verdict = "gain"
    elif bm and -gain / abs(bm) > m["bound"]:
        verdict = "WORSE"
    change = f"{(hm - bm) / bm * 100:+.1f}%" if bm else "n/a"
    print(f"{name:<30} {m['unit']:<6} {bm:>12.6g} {hm:>12.6g} {change:>8} {q3 - q1:>10.4g} {won:>4} {lost:>4} {sign_p(won, won + lost):>8.4f}  {verdict}")
for side, runs in (("base", base), ("head", head)):
    print(f"# {side}: {failed[side]} failed of {sum(r['attempted'] for r in runs)} operations")
if failed["head"] > failed["base"]:
    print("# this tree failed more operations than the base: no gain counts")
PY
}

if [ "${1:-}" = "--summary" ]; then
	[ $# -eq 3 ] || usage
	summary "$2" "$3" "$2"
	exit
fi
[ $# -ge 3 ] && [ "$3" = "--" ] || usage
rev=$1
pairs=$2
shift 3
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

base_commit=$(git -C "$head" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
cleanup() {
	# run.sh's build tree can hold read-only files (the Go module cache).
	chmod -R u+w "$tmp" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
mkdir "$tmp/base"
git -C "$head" archive "$base_commit" | tar -x -C "$tmp/base"

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

summary "$tmp/base.jsonl" "$tmp/head.jsonl" "${base_commit:0:7}"
