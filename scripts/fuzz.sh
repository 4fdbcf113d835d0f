#!/usr/bin/env bash
# fuzz.sh — run every Fuzz* target of the module for 10s each.
# `go test -fuzz` takes one target per invocation, so the targets are
# listed first (`go test -list`), which keeps a new one from being
# forgotten here. Their seed corpora already run on every plain
# `go test`; this is the time-boxed search beyond them.
set -euo pipefail

GO=${GO:-go}

targets=$("$GO" test -list '^Fuzz' ./... | awk '/^Fuzz/ { f[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, f[i]; n = 0 }')
if [ -z "$targets" ]; then
	echo "fuzz: no Fuzz* targets found" >&2
	exit 1
fi
while read -r pkg fn; do
	echo "fuzz: $pkg $fn"
	"$GO" test "$pkg" -run='^$' -fuzz="^$fn\$" -fuzztime=10s
done <<<"$targets"
