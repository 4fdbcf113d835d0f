package service

import (
	"context"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/planner"
)

// testModels returns fixed model constants that make decisions
// deterministic in tests: sampling pays 1ms per word shipped, so p = 1 —
// the one size that ships none — beats the heuristic's p on any graph.
func testModels() map[string]*perfmodel.Model {
	return map[string]*perfmodel.Model{
		planner.KernelCCSampling: {A: 1e-9, B: 1e-3, C: 1e-6, D: 5e-5},
		planner.KernelMCKargerSt: {A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-3},
	}
}

// Regression for the machine-sizing path: with the planner on, decide()
// consults the calibrated cost model instead of planner.HeuristicP's
// hard-coded edges-per-processor thresholds — the heuristic survives only as the
// planner-off sizing, the fallback and the tie-break.
func TestDecideConsultsPlannerNotThresholds(t *testing.T) {
	g := testGraph(1000, 20000)
	heuristic := planner.HeuristicP(len(g.Edges), 0, 16)
	if heuristic < 4 {
		t.Fatalf("test premise: heuristic p = %d, want >= 4", heuristic)
	}

	off := newTestEngine(t, Config{MaxProcessors: 16})
	sgOff, err := off.Registry().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := normalize(&QueryRequest{Graph: "g", Algorithm: AlgCC})
	rsOff := off.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC}, sgOff, pr)
	if rsOff.P != heuristic || rsOff.dec != nil {
		t.Fatalf("planner off: decide = %+v, want the heuristic p=%d", rsOff, heuristic)
	}

	on := newTestEngine(t, Config{MaxProcessors: 16, Planner: "static", PlannerModels: testModels()})
	sgOn, err := on.Registry().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}
	rsOn := on.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC}, sgOn, pr)
	// Under the injected constants a 21k-edge graph is cheaper at p = 1
	// than at the thresholds' 4 processors: the planner must override
	// the p.
	if rsOn.P != 1 {
		t.Fatalf("planner on: decide = p=%d, want p=1 (heuristic %d)", rsOn.P, heuristic)
	}
	if rsOn.dec == nil || rsOn.dec.P != rsOn.P || rsOn.dec.Fallback {
		t.Fatalf("planner on: decision = %+v, want a non-fallback decision for p=%d", rsOn.dec, rsOn.P)
	}
	// An explicit processor pin is still honored — the planner's one
	// candidate.
	rsPin := on.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 8}, sgOn, pr)
	if rsPin.P != 8 {
		t.Fatalf("explicit p: decide = p=%d, want p=8", rsPin.P)
	}
}

// The planner must never change answers: identical queries against a
// planner-off and a planner-on engine return bit-identical CC labellings
// and identical cut values.
func TestPlannerResultEquivalence(t *testing.T) {
	ccGraph := testGraph(1000, 20000)
	mcGraph := testGraph(60, 150)

	off := newTestEngine(t, Config{MaxProcessors: 8})
	on := newTestEngine(t, Config{MaxProcessors: 8, Planner: "static", PlannerModels: testModels()})
	for _, e := range []*Engine{off, on} {
		if _, err := e.Registry().Put("cc", ccGraph); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Registry().Put("mc", mcGraph); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	ccOff, err := off.Query(ctx, QueryRequest{Graph: "cc", Algorithm: AlgCC, IncludeLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	ccOn, err := on.Query(ctx, QueryRequest{Graph: "cc", Algorithm: AlgCC, IncludeLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []KernelStats{ccOff.Result.Kernel, ccOn.Result.Kernel} {
		if k.Kernel != planner.KernelCCSampling {
			t.Fatalf("cc ran kernel %q, want %s", k.Kernel, planner.KernelCCSampling)
		}
	}
	if ccOff.Result.Kernel.P != 4 || ccOn.Result.Kernel.P != 1 {
		t.Fatalf("cc ran at p=%d off and p=%d on, want 4 and 1 (injected models)",
			ccOff.Result.Kernel.P, ccOn.Result.Kernel.P)
	}
	if ccOff.Result.Components != ccOn.Result.Components {
		t.Fatalf("component count diverged: off %d, on %d", ccOff.Result.Components, ccOn.Result.Components)
	}
	if len(ccOff.Result.Labels) != len(ccOn.Result.Labels) {
		t.Fatalf("label lengths diverged: off %d, on %d", len(ccOff.Result.Labels), len(ccOn.Result.Labels))
	}
	for v := range ccOff.Result.Labels {
		if ccOff.Result.Labels[v] != ccOn.Result.Labels[v] {
			t.Fatalf("labels diverged at v=%d: off %d, on %d", v, ccOff.Result.Labels[v], ccOn.Result.Labels[v])
		}
	}

	mcOff, err := off.Query(ctx, QueryRequest{Graph: "mc", Algorithm: AlgMinCut})
	if err != nil {
		t.Fatal(err)
	}
	mcOn, err := on.Query(ctx, QueryRequest{Graph: "mc", Algorithm: AlgMinCut})
	if err != nil {
		t.Fatal(err)
	}
	if mcOff.Result.Value != mcOn.Result.Value {
		t.Fatalf("cut value diverged: off %d, on %d", mcOff.Result.Value, mcOn.Result.Value)
	}
}

// A planner without a calibrated model for the CC kernel runs it at the
// heuristic p and surfaces the event: Decision.Fallback, the planner's
// fallback counter, and the collector's planner_fallbacks counter all
// fire — never a silent default.
func TestPlannerFallbackSurfaced(t *testing.T) {
	// kargerstein is calibrated but sampling is not — as after a partial
	// calibration failure.
	models := testModels()
	delete(models, planner.KernelCCSampling)
	e := newTestEngine(t, Config{MaxProcessors: 4, Planner: "static", PlannerModels: models})
	g := testGraph(1000, 20000)
	if _, err := e.Registry().Put("g", g); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if err != nil {
		t.Fatal(err)
	}
	if k := rep.Result.Kernel; k.Kernel != planner.KernelCCSampling || k.P != planner.HeuristicP(len(g.Edges), 0, 4) {
		t.Fatalf("fallback ran %q at p=%d, want %q at the heuristic p", k.Kernel, k.P, planner.KernelCCSampling)
	}
	st := e.Stats()
	if st.Planner == nil {
		t.Fatal("planner stats block missing")
	}
	if st.Planner.Fallbacks == 0 {
		t.Fatalf("planner fallbacks = 0, want > 0: %+v", st.Planner)
	}
	if st.Queries.PlannerFallbacks == 0 {
		t.Fatalf("collector planner_fallbacks = 0, want > 0")
	}
}

// A planner-scheduled execution is counted in the stats snapshot, and
// its prediction is aggregated next to the kernel's measured time.
func TestPlannerStatsAccounting(t *testing.T) {
	e := newTestEngine(t, Config{MaxProcessors: 8, Planner: "static", PlannerModels: testModels()})
	if _, err := e.Registry().Put("g", testGraph(1000, 20000)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Planner == nil || st.Planner.Mode != "static" {
		t.Fatalf("planner block = %+v", st.Planner)
	}
	if st.Planner.Decisions != 1 || st.Planner.Fallbacks != 0 {
		t.Fatalf("planner counters = %+v, want one calibrated decision", st.Planner)
	}
	if len(st.Queries.Kernels) == 0 {
		t.Fatal("collector kernel aggregates missing")
	}
	agg, ok := st.Queries.Kernels[planner.KernelCCSampling]
	if !ok || agg.Executions == 0 {
		t.Fatalf("kernel aggregate missing for %s: %+v", planner.KernelCCSampling, st.Queries.Kernels)
	}
	if agg.TotalPredictedMs <= 0 {
		t.Fatalf("predicted time not aggregated: %+v", agg)
	}
}
