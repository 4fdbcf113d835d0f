package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"

	"repro/internal/benchsnap"
)

// Row is one committed metric next to its fresh measurement. The gate
// (kind, direction, tolerance, slack) is the committed side's: raw
// wall-clock is never gated, because CI hardware is not the baseline's
// hardware, and what is gated is either deterministic under a fixed
// seed or a ratio whose two sides ran in one process.
type Row struct {
	File string
	benchsnap.Metric
	Cur     float64
	Missing bool // in the baseline, absent from the fresh run
	New     bool // in the fresh run only: listed, never gated
}

// Delta is the fractional change from baseline (positive = increased).
func (r Row) Delta() float64 {
	if r.Cur == r.Value {
		return 0
	}
	return (r.Cur - r.Value) / math.Abs(r.Value) // ±Inf off a zero baseline
}

func (r Row) Gated() bool { return r.Kind != benchsnap.Info && !r.New }

// Regressed reports whether a gated metric vanished, or moved past its
// tolerance in the harmful direction.
func (r Row) Regressed() bool {
	switch {
	case !r.Gated():
		return false
	case r.Missing:
		return true
	case r.Kind == benchsnap.Exact:
		return r.Cur != r.Value
	case math.Abs(r.Cur-r.Value) <= r.Abs:
		return false
	}
	return r.Delta()*float64(r.Better) < -r.Tol
}

// compare joins one committed snapshot with its fresh counterpart by ID.
func compare(base, cur *benchsnap.Snapshot) []Row {
	fresh := map[string]float64{}
	for _, m := range cur.Metrics {
		fresh[m.ID] = m.Value
	}
	var rows []Row
	for _, m := range base.Metrics {
		v, ok := fresh[m.ID]
		rows = append(rows, Row{File: base.Name, Metric: m, Cur: v, Missing: !ok})
		delete(fresh, m.ID)
	}
	for _, m := range cur.Metrics {
		if _, ok := fresh[m.ID]; ok {
			rows = append(rows, Row{File: base.Name, Metric: m, Cur: m.Value, New: true})
		}
	}
	return rows
}

// Compare walks baselineDir for BENCH_*.json and compares each with the
// file at the same relative path under currentDir. A baseline whose
// fresh measurement is missing is an error: the bench silently didn't
// run, which must not pass the gate.
func Compare(baselineDir, currentDir string) ([]Row, error) {
	var rows []Row
	err := filepath.WalkDir(baselineDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if ok, _ := filepath.Match("BENCH_*.json", d.Name()); !ok {
			return nil
		}
		rel, _ := filepath.Rel(baselineDir, path)
		base, err := benchsnap.Read(path)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		cur, err := benchsnap.Read(filepath.Join(currentDir, rel))
		if err != nil {
			return fmt.Errorf("baseline %s exists but its current measurement is unusable: %w", rel, err)
		}
		rows = append(rows, compare(base, cur)...)
		return nil
	})
	return rows, err
}

// RenderTable writes the delta table as GitHub-flavored markdown.
func RenderTable(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "| metric | baseline | current | delta | gate |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	for _, r := range rows {
		base, cur, delta, status := fmtVal(r.Value), fmtVal(r.Cur), fmt.Sprintf("%+.1f%%", 100*r.Delta()), string(r.Kind)
		switch {
		case r.New:
			base, delta, status = "—", "—", "new (no baseline)"
		case r.Missing:
			cur, delta, status = "—", "—", status+", missing"
		}
		if r.Regressed() {
			status = "**REGRESSION** (" + status + ")"
		}
		fmt.Fprintf(w, "| %s/%s | %s | %s | %s | %s |\n", r.File, r.ID, base, cur, delta, status)
	}
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
