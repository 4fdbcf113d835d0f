// Command benchgate compares freshly measured BENCH_*.json files
// against the committed baselines and fails (exit 1) when a gated
// metric regressed — the CI gate that keeps the paper's headline
// numbers (communication volume, superstep counts, cache and scheduling
// speedups, allocation counts) from silently eroding.
//
//	benchgate -baseline .benchgate/baseline -current .
//
// Both directories are repo roots: every BENCH_*.json found under
// -baseline is compared with the file at the same relative path under
// -current. All files share one schema (internal/benchsnap), and each
// committed metric names its own gate: exact, count (15%), ratio (40%)
// or info (never gated). A gated metric missing from the fresh run is a
// regression. The delta table is printed to stdout and, when -summary
// or $GITHUB_STEP_SUMMARY names a file, appended there as markdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baseline = flag.String("baseline", "", "repo root holding the committed BENCH_*.json baselines")
		current  = flag.String("current", ".", "repo root holding the freshly measured BENCH_*.json files")
		summary  = flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"), "file to append the markdown delta table to (default $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()
	if *baseline == "" {
		log.Fatal("need -baseline DIR (copy the committed BENCH files aside before re-running benches)")
	}

	rows, err := Compare(*baseline, *current)
	if err != nil {
		log.Fatal(err)
	}
	if len(rows) == 0 {
		log.Fatal("no baselines found under -baseline; nothing to gate")
	}
	gated, regressed := 0, 0
	for _, r := range rows {
		if r.Gated() {
			gated++
		}
	}

	var table strings.Builder
	fmt.Fprintf(&table, "### benchgate: %d metrics (%d gated)\n\n", len(rows), gated)
	RenderTable(&table, rows)
	fmt.Print(table.String())
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(f, table.String())
		f.Close()
	}

	for _, r := range rows {
		if r.Regressed() {
			regressed++
			cur := fmtVal(r.Cur)
			if r.Missing {
				cur = "missing"
			}
			log.Printf("REGRESSION %s/%s: baseline %s → current %s (%+.1f%%, %s, tolerance %.0f%%)",
				r.File, r.ID, fmtVal(r.Value), cur, 100*r.Delta(), r.Kind, 100*r.Tol)
		}
	}
	if regressed > 0 {
		log.Fatalf("FAIL: %d gated metric(s) regressed", regressed)
	}
	log.Printf("PASS: no regressions across %d metrics (%d gated)", len(rows), gated)
}
