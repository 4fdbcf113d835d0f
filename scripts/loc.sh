#!/usr/bin/env bash
# Go line counts of the root module (benchmark/ is its own module and is
# left out): non-test / test lines per package directory, the module
# totals, the ROADMAP item 9 budget line and the item 6 planner line.
# Lines are `wc -l` lines — comments and blanks included — so numbers
# compare across PRs. Exits non-zero when the item 9 budget is reached.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count <dir> <find-predicate...>: lines of the Go files directly in dir
	local dir=$1; shift
	find "$dir" -maxdepth 1 -name '*.go' "$@" -print0 | xargs -0 -r cat | wc -l
}

printf '%-28s %9s %9s\n' package non-test test
total=0 total_test=0 budget=0 planner=0 perfmodel=0
while read -r dir; do
	n=$(count "$dir" ! -name '*_test.go')
	t=$(count "$dir" -name '*_test.go')
	printf '%-28s %9d %9d\n' "${dir#./}" "$n" "$t"
	total=$((total + n)) total_test=$((total_test + t))
	case "${dir#./}" in
	internal/service | internal/shard | internal/transport | cmd/benchgate) budget=$((budget + n)) ;;
	internal/planner) planner=$n ;;
	internal/perfmodel) perfmodel=$n ;;
	esac
done < <(find . -name '*.go' -not -path './benchmark/*' -printf '%h\n' | sort -u)
printf '%-28s %9d %9d\n' 'root module' "$total" "$total_test"
limit=5750
echo "budget (service+shard+transport+benchgate non-test, ROADMAP item 9: under $limit): $budget"
echo "planner + perfmodel non-test (ROADMAP item 6: goes down): $planner + $perfmodel = $((planner + perfmodel))"
if ((budget >= limit)); then
	echo "loc: service+shard+transport+benchgate is $budget non-test lines, at or over the ROADMAP item 9 budget of $limit" >&2
	exit 1
fi
