package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchsnap"
)

// fixtures is a small committed tree: one snapshot per writer, with at
// least one metric of every kind the real files carry.
func fixtures() map[string]*benchsnap.Snapshot {
	tree := map[string]*benchsnap.Snapshot{}
	add := func(path string, k benchsnap.Kind, id string, v float64, better int, abs float64) {
		if tree[path] == nil {
			name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
			tree[path] = &benchsnap.Snapshot{Name: name}
		}
		tree[path].Add(k, id, v, better, abs)
	}
	const (
		service   = "internal/service/BENCH_service.json"
		planner   = "internal/service/BENCH_planner.json"
		bsp       = "internal/bsp/BENCH_bsp.json"
		kernels   = "internal/kernels/BENCH_kernels.json"
		transport = "internal/transport/BENCH_transport.json"
		fleet     = "internal/shard/BENCH_fleet.json"
	)
	add(service, benchsnap.Ratio, "cache_speedup/cc", 20.476, +1, 0)
	add(service, benchsnap.Info, "warm_ns_op/cc", 21000, -1, 0)
	add(service, benchsnap.Info, "cold_ns_op/cc", 430000, -1, 0)
	add(service, benchsnap.Ratio, "dynamic_sched_speedup", 2.39, +1, 0)
	add(service, benchsnap.Exact, "cut_value/dynamic", 2, 0, 0)
	add(planner, benchsnap.Ratio, "high_diameter_speedup", 16.58, +1, 0)
	add(planner, benchsnap.Info, "high_diameter_actual_ms", 32.6, -1, 0)
	add(planner, benchsnap.Info, "decisions", 111, 0, 0)
	add(bsp, benchsnap.Exact, "result/cc/p=4", 1, 0, 0)
	add(bsp, benchsnap.Exact, "comm_volume/cc/p=4", 11465, -1, 0)
	add(bsp, benchsnap.Exact, "supersteps/cc/p=4", 13, -1, 0)
	add(bsp, benchsnap.Info, "time_sec/cc/p=4", 0.00018, -1, 0)
	add(bsp, benchsnap.Exact, "result_mismatches", 0, -1, 0)
	add(kernels, benchsnap.Ratio, "edge_sort_speedup/m=100000", 4.4, +1, 0)
	add(kernels, benchsnap.Count, "combine_allocs_op", 2, -1, 2)
	add(transport, benchsnap.Info, "mb_per_s/tcp/p=2/w=1024", 501, +1, 0)
	add(transport, benchsnap.Ratio, "socket_tax/p=2/w=1024", 15.24, -1, 30)
	add(transport, benchsnap.Info, "socket_tax/p=2/w=64", 47.9, -1, 30)
	add(fleet, benchsnap.Exact, "queries_failed_over", 1, 0, 0)
	add(fleet, benchsnap.Info, "detection_ms", 9.86, -1, 0)
	return tree
}

// TestFixturesNameLiveRows: every fixture id is a row of the committed
// file it stands for, so the gate tests exercise metrics that exist.
func TestFixturesNameLiveRows(t *testing.T) {
	for path, fx := range fixtures() {
		committed, err := benchsnap.Read(filepath.Join("../..", path))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fx.Metrics {
			if !slices.ContainsFunc(committed.Metrics, func(c benchsnap.Metric) bool { return c.ID == m.ID }) {
				t.Errorf("fixture %s/%s is not a row of %s", fx.Name, m.ID, path)
			}
		}
	}
}

func writeTree(t *testing.T, tree map[string]*benchsnap.Snapshot) string {
	t.Helper()
	dir := t.TempDir()
	for rel, s := range tree {
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// metric finds "file/id" in tree; i < 0 when absent.
func metric(tree map[string]*benchsnap.Snapshot, full string) (s *benchsnap.Snapshot, i int) {
	for _, s := range tree {
		if id, ok := strings.CutPrefix(full, s.Name+"/"); ok {
			if i := slices.IndexFunc(s.Metrics, func(m benchsnap.Metric) bool { return m.ID == id }); i >= 0 {
				return s, i
			}
		}
	}
	return nil, -1
}

func regressed(t *testing.T, base, cur map[string]*benchsnap.Snapshot) []string {
	t.Helper()
	rows, err := Compare(writeTree(t, base), writeTree(t, cur))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range rows {
		if r.Regressed() {
			ids = append(ids, r.File+"/"+r.ID)
		}
	}
	return ids
}

// set is a seeded change to the fresh tree: "file/id" → fresh value.
type set map[string]float64

// check applies change to a copy of the fixtures and requires exactly
// the metric want to regress against the unchanged tree ("" = the gate
// must pass).
func check(t *testing.T, change set, want string) {
	t.Helper()
	cur := fixtures()
	for full, v := range change {
		s, i := metric(cur, full)
		if i < 0 {
			t.Fatalf("no fixture metric %s", full)
		}
		s.Metrics[i].Value = v
	}
	if got := regressed(t, fixtures(), cur); !slices.Equal(got, strings.Fields(want)) {
		t.Errorf("%v: regressed %v, want [%s]", change, got, want)
	}
}

func TestGatePassesUnchanged(t *testing.T) { check(t, nil, "") }

// A 2× slowdown on one side of a ratio halves it and must fail (a ratio
// that improves must not); a machine 1.6× slower across the board moves
// every raw timing but no ratio.
func TestGateCatchesTwoXSlowdown(t *testing.T) {
	check(t, set{"service/warm_ns_op/cc": 42000, "service/cache_speedup/cc": 10.238}, "service/cache_speedup/cc")
	check(t, set{"service/dynamic_sched_speedup": 1.1}, "service/dynamic_sched_speedup")
	check(t, set{"kernels/edge_sort_speedup/m=100000": 1.2}, "kernels/edge_sort_speedup/m=100000")
	check(t, set{"service/cache_speedup/cc": 45}, "")
}

func TestGateIgnoresUniformMachineSpeed(t *testing.T) {
	check(t, set{"service/warm_ns_op/cc": 33600, "service/cold_ns_op/cc": 688000,
		"bsp/time_sec/cc/p=4": 0.00029, "fleet/detection_ms": 15.8, "transport/mb_per_s/tcp/p=2/w=1024": 313}, "")
}

// Exact kinds have no band: growth fails, and so does a change in the
// good direction that nobody re-baselined.
func TestGateCatchesCommVolumeGrowth(t *testing.T) {
	check(t, set{"bsp/comm_volume/cc/p=4": 14905}, "bsp/comm_volume/cc/p=4")
	check(t, set{"bsp/supersteps/cc/p=4": 14}, "bsp/supersteps/cc/p=4")
	check(t, set{"bsp/comm_volume/cc/p=4": 11000}, "bsp/comm_volume/cc/p=4")
}

func TestGateCatchesWrongResult(t *testing.T) {
	check(t, set{"bsp/result/cc/p=4": 3}, "bsp/result/cc/p=4")
	check(t, set{"bsp/result_mismatches": 1}, "bsp/result_mismatches")
	check(t, set{"service/cut_value/dynamic": 3}, "service/cut_value/dynamic")
}

// Tiny counters tolerate a ±1 wobble from a shorter CI benchtime but
// still fail on a genuine leak.
func TestGateAllocSlack(t *testing.T) {
	check(t, set{"kernels/combine_allocs_op": 3}, "")
	check(t, set{"kernels/combine_allocs_op": 40}, "kernels/combine_allocs_op")
}

// The planner file gates its speedup; a measured time and the decision
// count are info.
func TestGateCatchesPlannerRegressions(t *testing.T) {
	check(t, set{"planner/high_diameter_speedup": 1.05}, "planner/high_diameter_speedup")
	check(t, set{"planner/high_diameter_actual_ms": 400}, "")
	check(t, set{"planner/decisions": 0}, "")
}

func TestGateCatchesFleetCountDrift(t *testing.T) {
	check(t, set{"fleet/queries_failed_over": 2}, "fleet/queries_failed_over")
}

// The Abs slack absorbs the core-count shift of the local-fabric
// denominator; a ~4× blow-up of the wire path does not fit in it. The
// small-payload tax is informational.
func TestGateCatchesSocketTaxBlowup(t *testing.T) {
	check(t, set{"transport/socket_tax/p=2/w=1024": 40}, "")
	check(t, set{"transport/socket_tax/p=2/w=1024": 60.8}, "transport/socket_tax/p=2/w=1024")
	check(t, set{"transport/socket_tax/p=2/w=64": 400}, "")
}

// TestGateMissingMetricFails: a bench that silently stops emitting a
// gated row must not pass; an info row may vanish, and a row only the
// fresh run has is listed but not gated.
func TestGateMissingMetricFails(t *testing.T) {
	cur := fixtures()
	for _, full := range []string{"bsp/supersteps/cc/p=4", "bsp/time_sec/cc/p=4"} {
		s, i := metric(cur, full)
		s.Metrics = slices.Delete(s.Metrics, i, i+1)
	}
	s, _ := metric(cur, "bsp/result_mismatches")
	s.Add(benchsnap.Exact, "supersteps/cc/p=32", 9, -1, 0)
	if got := regressed(t, fixtures(), cur); !slices.Equal(got, []string{"bsp/supersteps/cc/p=4"}) {
		t.Fatalf("regressed %v, want exactly the vanished gated row", got)
	}
	rows, _ := Compare(writeTree(t, fixtures()), writeTree(t, cur))
	var sb strings.Builder
	RenderTable(&sb, rows)
	for _, want := range []string{
		"| bsp/supersteps/cc/p=4 | 13 | — | — | **REGRESSION** (exact, missing) |",
		"| bsp/time_sec/cc/p=4 | 0.000 | — | — | info, missing |",
		"| bsp/supersteps/cc/p=32 | — | 9 | — | new (no baseline) |",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestGateIsTheCommittedSides: a fresh file cannot loosen its own gate.
func TestGateIsTheCommittedSides(t *testing.T) {
	cur := fixtures()
	s, i := metric(cur, "service/cache_speedup/cc")
	s.Metrics[i] = benchsnap.Metric{ID: "cache_speedup/cc", Value: 10.238, Kind: benchsnap.Info}
	if got := regressed(t, fixtures(), cur); !slices.Equal(got, []string{"service/cache_speedup/cc"}) {
		t.Fatalf("regressed %v: the fresh side's kind must not ungate the committed metric", got)
	}
}

// TestGateMissingCurrentFails: a baseline whose fresh measurement is
// missing means the bench silently didn't run — an error, not a pass.
func TestGateMissingCurrentFails(t *testing.T) {
	cur := fixtures()
	delete(cur, "internal/kernels/BENCH_kernels.json")
	if _, err := Compare(writeTree(t, fixtures()), writeTree(t, cur)); err == nil {
		t.Fatal("missing current measurement passed")
	}
}

// TestGateSkipsMissingBaseline: a fresh file with no committed baseline
// yet is not gated, and does not fail the rest.
func TestGateSkipsMissingBaseline(t *testing.T) {
	base := fixtures()
	delete(base, "internal/transport/BENCH_transport.json")
	rows, err := Compare(writeTree(t, base), writeTree(t, fixtures()))
	if err != nil || len(rows) == 0 {
		t.Fatalf("rows %d, err %v", len(rows), err)
	}
	for _, r := range rows {
		if r.File == "transport" {
			t.Fatalf("row %+v from a file with no baseline", r)
		}
	}
}

// TestRenderTable: the markdown is well-formed, names each row's kind
// and flags the failure.
func TestRenderTable(t *testing.T) {
	var sb strings.Builder
	RenderTable(&sb, []Row{
		{File: "service", Metric: benchsnap.Metric{ID: "cache_speedup/cc", Value: 20, Kind: benchsnap.Ratio, Better: +1, Tol: 0.4}, Cur: 10},
		{File: "bsp", Metric: benchsnap.Metric{ID: "supersteps/cc/p=4", Value: 6, Kind: benchsnap.Exact}, Cur: 6},
		{File: "bsp", Metric: benchsnap.Metric{ID: "time_sec/cc/p=4", Value: 0.1, Kind: benchsnap.Info, Better: -1}, Cur: 0.2},
	})
	for _, want := range []string{"| -50.0% | **REGRESSION** (ratio) |", "| +0.0% | exact |", "| +100.0% | info |"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCommittedBaselines strictly decodes every committed baseline and
// checks that each passes its own gate.
func TestCommittedBaselines(t *testing.T) {
	paths, _ := filepath.Glob("../../internal/*/BENCH_*.json")
	if len(paths) < 6 {
		t.Fatalf("found %d committed baselines, want the six writers'", len(paths))
	}
	for _, p := range paths {
		s, err := benchsnap.Read(p)
		if err != nil {
			t.Error(err)
			continue
		}
		gated := 0
		for _, r := range compare(s, s) {
			if r.Gated() {
				gated++
			}
			if r.Regressed() || r.Kind == benchsnap.Ratio && r.Value <= 0 {
				t.Errorf("%s: %s regresses against itself or is a ratio that did not measure", p, r.ID)
			}
		}
		if gated == 0 || "BENCH_"+s.Name+".json" != filepath.Base(p) {
			t.Errorf("%s: name %q, %d gated metrics", p, s.Name, gated)
		}
	}
}
