package service

import (
	"context"
	"testing"

	"repro/internal/benchsnap"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/graph"
	"repro/internal/planner"
)

// ---------------------------------------------------------------------------
// BENCH_planner.json — the planner evidence CI archives and
// cmd/benchgate gates:
//
//   - high_diameter: on a 100k-edge path with p pinned to 16, the CC
//     kernel (iterated sampling) vs cc.LabelPropagation (the
//     O(d)-superstep baseline it displaces) on a p=16 machine — a
//     same-process ratio;
//   - the planner's decision and fallback counts after the runs above,
//     info only.
// ---------------------------------------------------------------------------

// plannerPathGraph is the high-diameter workload: a 100001-vertex path,
// the worst case for diameter-bound label propagation.
func plannerPathGraph() *graph.Graph {
	const n = 100001
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(int32(v), int32(v+1), 1)
	}
	return g
}

// benchQuery measures one repeated query against a live engine: a first
// run off the clock (plan/machine-pool warmup — the steady state
// every later query sees), then ns/op over the benchmark loop.
func benchQuery(e *Engine, req QueryRequest) (testing.BenchmarkResult, error) {
	req.NoCache = true
	if _, err := e.Query(context.Background(), req); err != nil {
		return testing.BenchmarkResult{}, err
	}
	return bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runQuery(b, e, req)
		}
	}), nil
}

func fillPlannerSnapshot(snap *benchsnap.Snapshot) error {
	// Plans stay disabled throughout: a warm plan answers CC without
	// running the kernel (that effect is BENCH_service.json's claim), and
	// this file times the kernel itself. The planner engine calibrates
	// its cost models at startup — the same live CalibrateBuiltins path
	// camcd runs, so the predictions below come from real fits, not
	// injected constants.
	pe := NewEngine(Config{
		Workers: 1, MaxProcessors: 16, CacheCapacity: -1, DisablePlans: true,
		Planner: "static",
	})
	defer pe.Close()

	pathG := plannerPathGraph()
	if _, err := pe.Registry().Put("path", pathG); err != nil {
		return err
	}

	// --- high_diameter: label propagation@16 vs the CC kernel@16 ---
	plReq := QueryRequest{Graph: "path", Algorithm: AlgCC, Processors: 16, NoCache: true}
	probe, err := pe.Query(context.Background(), plReq)
	if err != nil {
		return err
	}
	var lpErr error
	lp := bench(func(b *testing.B) {
		for i := 0; i < b.N && lpErr == nil; i++ {
			_, lpErr = planner.RunBlocks(context.Background(), planner.Shape{P: 16}, pathG.Edges, func(c *bsp.Comm, local []graph.Edge) {
				cc.LabelPropagation(c, pathG.N, local)
			})
		}
	})
	if lpErr != nil {
		return lpErr
	}
	pl, err := benchQuery(pe, plReq)
	if err != nil {
		return err
	}
	snap.Add(benchsnap.Ratio, "high_diameter_speedup", float64(lp.NsPerOp())/float64(pl.NsPerOp()), +1, 0)
	snap.Add(benchsnap.Info, "high_diameter_labelprop_ns_op", float64(lp.NsPerOp()), -1, 0)
	snap.Add(benchsnap.Info, "high_diameter_planner_ns_op", float64(pl.NsPerOp()), -1, 0)
	// The cost model's accuracy on one planner-scheduled execution.
	snap.Add(benchsnap.Info, "high_diameter_predicted_ms", probe.Result.Kernel.PredictedMs, 0, 0)
	snap.Add(benchsnap.Info, "high_diameter_actual_ms", probe.Result.Kernel.TimeMs, -1, 0)

	ps := pe.Planner().Snapshot()
	snap.Add(benchsnap.Info, "calibration_fallbacks", float64(ps.Fallbacks), -1, 0)
	snap.Add(benchsnap.Info, "decisions", float64(ps.Decisions), 0, 0)
	return nil
}
