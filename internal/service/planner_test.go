package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/planner"
)

// fakeCC names a second CC member the cross-kernel tests register: the
// table ships one member per algorithm, and overriding the default
// kernel, pinning a non-default one and attributing stats per kernel
// need two.
const fakeCC = "fakecc"

// registerFakeCC adds fakeCC for the rest of the test. It runs the
// default member's kernel, so every answer is bit-identical to the
// default's, priced as a few rounds of one n-word all-reduce each.
func registerFakeCC(t *testing.T) {
	t.Cleanup(planner.Register(&planner.Kernel{
		Name: fakeCC, Algorithm: AlgCC, Run: planner.Lookup(AlgCC, "").Run,
		Cost: func(st planner.GraphStats, p int, _ planner.Params) perfmodel.Sample {
			n, m, fp := float64(st.N), float64(st.M), float64(p)
			return perfmodel.Sample{Comp: 4 * (m/fp + 2*n), Volume: 8 * (fp - 1) * n, Supersteps: 18, P: fp}
		},
	}))
}

// testModels registers fakeCC and returns fixed model constants that
// make decisions deterministic in tests: the default sampling kernel
// pays 50µs of fixed overhead, fakeCC 1µs, so small graphs route to
// fakeCC on a small machine.
func testModels(t *testing.T) map[string]*perfmodel.Model {
	registerFakeCC(t)
	return map[string]*perfmodel.Model{
		planner.KernelCCSampling: {A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-5},
		fakeCC:                   {A: 1e-9, B: 2e-9, C: 1e-6, D: 1e-6},
		planner.KernelMCKargerSt: {A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-3},
	}
}

// Regression for the machine-sizing path: with the planner on, decide()
// consults the calibrated cost model instead of planner.HeuristicP's
// hard-coded edges-per-processor thresholds — the heuristic survives only as the
// planner-off fallback and the win-rate baseline.
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
	rsOff, err := off.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC}, sgOff, pr)
	if err != nil {
		t.Fatal(err)
	}
	if rsOff.Kernel != "" || rsOff.P != heuristic || rsOff.dec != nil {
		t.Fatalf("planner off: decide = %+v, want default kernel at heuristic p=%d", rsOff, heuristic)
	}

	on := newTestEngine(t, Config{MaxProcessors: 16, Planner: "static", PlannerModels: testModels(t)})
	sgOn, err := on.Registry().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}
	rsOn, err := on.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC}, sgOn, pr)
	if err != nil {
		t.Fatal(err)
	}
	// Under the injected constants a 21k-edge graph is cheaper on
	// fakeCC at a smaller machine than on sampling at the thresholds'
	// 4 processors: the planner must override both the kernel and the p.
	if rsOn.Kernel != fakeCC || rsOn.P == heuristic {
		t.Fatalf("planner on: decide = kern=%q p=%d, want %s at p != %d", rsOn.Kernel, rsOn.P, fakeCC, heuristic)
	}
	if rsOn.dec == nil || !rsOn.dec.Diverged || rsOn.dec.Fallback {
		t.Fatalf("planner on: decision = %+v, want diverged non-fallback", rsOn.dec)
	}
	// An explicit processor pin is still honored — the planner only picks
	// among kernels at that p.
	rsPin, err := on.decide(&QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 8}, sgOn, pr)
	if err != nil {
		t.Fatal(err)
	}
	if rsPin.P != 8 {
		t.Fatalf("explicit p: decide = kern=%q p=%d, want p=8", rsPin.Kernel, rsPin.P)
	}
}

// The planner must never change answers: identical queries against a
// planner-off and a planner-on engine return bit-identical CC labellings
// and identical cut values.
func TestPlannerResultEquivalence(t *testing.T) {
	ccGraph := testGraph(1000, 20000)
	mcGraph := testGraph(60, 150)

	off := newTestEngine(t, Config{MaxProcessors: 8})
	on := newTestEngine(t, Config{MaxProcessors: 8, Planner: "static", PlannerModels: testModels(t)})
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
	if ccOn.Result.Kernel.Kernel != fakeCC {
		t.Fatalf("planner-on cc kernel = %q, want %s (injected models)", ccOn.Result.Kernel.Kernel, fakeCC)
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

// A planner without a calibrated model for the default kernel runs the
// default path and surfaces the event: Decision.Fallback, the planner's
// fallback counter, and the collector's planner_fallbacks counter all
// fire — never a silent default.
func TestPlannerFallbackSurfaced(t *testing.T) {
	// fakeCC is calibrated but the default (sampling) is not — as after
	// a partial calibration failure.
	registerFakeCC(t)
	models := map[string]*perfmodel.Model{
		fakeCC: {A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-5},
	}
	e := newTestEngine(t, Config{MaxProcessors: 4, Planner: "static", PlannerModels: models})
	if _, err := e.Registry().Put("g", testGraph(200, 600)); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Kernel.Kernel != planner.KernelCCSampling {
		t.Fatalf("fallback ran kernel %q, want default %q", rep.Result.Kernel.Kernel, planner.KernelCCSampling)
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

// Request-pinned kernels bypass the planner but are validated.
func TestKernelPinning(t *testing.T) {
	registerFakeCC(t)
	e := newTestEngine(t, Config{MaxProcessors: 4})
	if _, err := e.Registry().Put("g", testGraph(300, 900)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	base, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, IncludeLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, kern := range []string{
		planner.KernelCCSampling,
		fakeCC,
	} {
		rep, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, Kernel: kern, IncludeLabels: true})
		if err != nil {
			t.Fatalf("%s: %v", kern, err)
		}
		if rep.Result.Kernel.Kernel != kern {
			t.Fatalf("pinned %q but ran %q", kern, rep.Result.Kernel.Kernel)
		}
		if rep.Result.Components != base.Result.Components {
			t.Fatalf("%s: components %d != default %d", kern, rep.Result.Components, base.Result.Components)
		}
		for v := range base.Result.Labels {
			if rep.Result.Labels[v] != base.Result.Labels[v] {
				t.Fatalf("%s: label diverged at v=%d", kern, v)
			}
		}
	}
	// Names outside the table — including the deleted members — and a cc
	// kernel on mincut are bad requests.
	for _, req := range []QueryRequest{
		{Graph: "g", Algorithm: AlgCC, Kernel: "bogus"},
		{Graph: "g", Algorithm: AlgCC, Kernel: "lowround"},
		{Graph: "g", Algorithm: AlgCC, Kernel: "labelprop"},
		{Graph: "g", Algorithm: AlgCC, Kernel: "shared"},
		{Graph: "g", Algorithm: AlgMinCut, Kernel: "stoerwagner"},
		{Graph: "g", Algorithm: AlgMinCut, Kernel: planner.KernelCCSampling},
	} {
		if _, err := e.Query(ctx, req); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "unknown kernel") {
			t.Fatalf("%s pin error = %v, want ErrBadRequest unknown kernel", req.Kernel, err)
		}
	}
	// A pin runs on a machine of the requested size.
	rep, err := e.Query(ctx, QueryRequest{Graph: "g", Algorithm: AlgCC, Kernel: fakeCC, Processors: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Kernel.Transport != "local" || rep.Result.Kernel.P != 4 {
		t.Fatalf("pinned %s at p=4 kernel stats = %+v", fakeCC, rep.Result.Kernel)
	}
}

// A planner-scheduled execution feeds win-rate and prediction-error
// accounting visible in the stats snapshot.
func TestPlannerStatsAccounting(t *testing.T) {
	e := newTestEngine(t, Config{MaxProcessors: 8, Planner: "static", PlannerModels: testModels(t)})
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
	if st.Planner.Decisions == 0 || st.Planner.Executed == 0 || st.Planner.Diverged == 0 {
		t.Fatalf("planner counters not fed: %+v", st.Planner)
	}
	if st.Planner.MeanAbsErr <= 0 {
		t.Fatalf("prediction error not recorded: %+v", st.Planner)
	}
	if len(st.Queries.Kernels) == 0 {
		t.Fatal("collector kernel aggregates missing")
	}
	agg, ok := st.Queries.Kernels[fakeCC]
	if !ok || agg.Executions == 0 {
		t.Fatalf("kernel aggregate missing for %s: %+v", fakeCC, st.Queries.Kernels)
	}
	if agg.TotalPredictedMs <= 0 {
		t.Fatalf("predicted time not aggregated: %+v", agg)
	}
}
