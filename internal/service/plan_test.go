package service

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
)

// queryExec forces a kernel execution (no cache) and returns the result.
func queryExec(t *testing.T, e *Engine, req QueryRequest) *QueryResult {
	t.Helper()
	req.NoCache = true
	reply, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("query %s on %q: %v", req.Algorithm, req.Graph, err)
	}
	return reply.Result
}

// A warm cc query must be communication-free: every collective the cold
// path runs is covered by plan facts, so the kernel executes zero
// supersteps and moves zero words — and the ledger says so explicitly
// through the avoided counters instead of silently shrinking.
func TestPlanWarmCCCommunicationFree(t *testing.T) {
	warm := newTestEngine(t, Config{Workers: 1, MaxProcessors: 4})
	cold := newTestEngine(t, Config{Workers: 1, MaxProcessors: 4, DisablePlans: true})
	g := testGraph(400, 1600)
	if _, err := warm.Registry().Put("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Registry().Put("g", g); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 4, IncludeLabels: true}

	coldRes := queryExec(t, cold, req)
	warmRes := queryExec(t, warm, req)

	if warmRes.Kernel.Supersteps != 0 || warmRes.Kernel.CommVolume != 0 {
		t.Errorf("warm cc ran ss=%d vol=%d, want 0/0",
			warmRes.Kernel.Supersteps, warmRes.Kernel.CommVolume)
	}
	if warmRes.Kernel.AvoidedCollectives == 0 || warmRes.Kernel.AvoidedCommVolume == 0 {
		t.Errorf("warm cc avoided=%d/%d words, want both > 0 (the skips must be on the ledger)",
			warmRes.Kernel.AvoidedCollectives, warmRes.Kernel.AvoidedCommVolume)
	}
	if coldRes.Kernel.AvoidedCollectives != 0 || coldRes.Kernel.AvoidedCommVolume != 0 {
		t.Errorf("cold cc reports avoided=%d/%d, want 0/0",
			coldRes.Kernel.AvoidedCollectives, coldRes.Kernel.AvoidedCommVolume)
	}
	if warmRes.Components != coldRes.Components {
		t.Errorf("warm components = %d, cold = %d", warmRes.Components, coldRes.Components)
	}
	for v := range coldRes.Labels {
		if warmRes.Labels[v] != coldRes.Labels[v] {
			t.Fatalf("warm label differs at vertex %d: %d vs %d",
				v, warmRes.Labels[v], coldRes.Labels[v])
		}
	}
	if got := warm.Stats().Plans; got != 1 {
		t.Errorf("plan count = %d, want 1", got)
	}
	if got := cold.Stats().Plans; got != 0 {
		t.Errorf("DisablePlans engine cached %d plans, want 0", got)
	}
}

// planner.Answers says a plan answers a query exactly when the warm run
// on that plan runs no superstep, for every kernel, at p ∈ {1, 2, 4}, on
// a connected, a disconnected, a certifying and an uncertified graph —
// whether the predicate or the run is first to meet the version's
// certificate. A run of a query the plan does not answer communicates.
func TestAnswersIffWarmRunIsSilent(t *testing.T) {
	graphs := []struct {
		name   string
		g      *graph.Graph
		mincut bool // what Answers must say for mincut
	}{
		{"connected", gen.WattsStrogatz(120, 6, 0.3, 5, gen.Config{MaxWeight: 3}), true},
		{"disconnected", gen.ErdosRenyiM(200, 150, 4, gen.Config{MaxWeight: 3}), true},
		{"certifying", gen.Cycle(40, 2), true},
		{"planted", gen.PlantedCut(64, 8, 2, 3), false},
	}
	for _, tc := range graphs {
		for _, runFirst := range []bool{false, true} {
			sg, err := NewRegistry().Put(tc.name, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4} {
				pl := sg.Plan(p)
				for _, alg := range []string{AlgCC, AlgMinCut, AlgApproxCut} {
					var answered bool
					if !runFirst {
						answered = planner.Answers(alg, pl)
					}
					res, err := Run(context.Background(), sg, alg, planner.RunParams{MaxTrials: 4}.Defaulted(), planner.Shape{P: p, Plan: pl})
					if err != nil {
						t.Fatal(err)
					}
					if runFirst {
						answered = planner.Answers(alg, pl)
					}
					if silent := res.Kernel.Supersteps == 0; answered != silent {
						t.Errorf("%s %s p=%d (run first: %v): Answers %v, warm run %d supersteps",
							tc.name, alg, p, runFirst, answered, res.Kernel.Supersteps)
					}
					if alg == AlgMinCut && answered != tc.mincut {
						t.Errorf("%s mincut p=%d: Answers %v, want %v", tc.name, p, answered, tc.mincut)
					}
				}
			}
		}
	}
}

// A warm mincut skips the edge replication — its one prologue
// collective and the dominant volume — and returns the same cut, trials
// and all, as the cold path (trial streams derive from the trial index,
// not from what was skipped). The ledger balances exactly: warm plus
// avoided is cold, and avoided is the plan's measured gather cost. The
// certificate is a fact of the snapshot: at p ∈ {1, 2, 16} it runs on
// the first warm query of a version only, whatever the query count, and
// a re-upload runs it again. On the certifying input its work is the
// whole of a run's ops, so the warm queries' ops add up to one cold
// run's; on the planted cut it fails, and the warm queries after the
// first draw exactly the trials the cold run does, without its work.
func TestPlanWarmMincutAvoidsCollectives(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		maxTrials int
		certified bool
	}{
		{"er256", testGraph(256, 1024), 8, true},
		{"planted64", gen.PlantedCut(64, 8, 2, 3), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm := newTestEngine(t, Config{Workers: 1, MaxProcessors: 16})
			cold := newTestEngine(t, Config{Workers: 1, MaxProcessors: 16, DisablePlans: true})
			sg, err := warm.Registry().Put("g", tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cold.Registry().Put("g", tc.g); err != nil {
				t.Fatal(err)
			}
			var warmOps, certOps uint64
			for i, p := range []int{1, 2, 16} {
				req := QueryRequest{Graph: "g", Algorithm: AlgMinCut, Processors: p, MaxTrials: tc.maxTrials}
				coldRes := queryExec(t, cold, req)
				ck := coldRes.Kernel
				if ck.AvoidedCollectives != 0 || ck.AvoidedCommVolume != 0 {
					t.Errorf("p=%d: cold mincut reports avoided=%d/%d, want 0/0", p, ck.AvoidedCollectives, ck.AvoidedCommVolume)
				}
				if (coldRes.Trials == 0) != tc.certified {
					t.Fatalf("p=%d: cold run drew %d trials; the input should certify: %v", p, coldRes.Trials, tc.certified)
				}
				gather := warm.planFor(sg, p).GatherCost
				for q := range 3 {
					warmRes := queryExec(t, warm, req)
					wk := warmRes.Kernel
					if warmRes.Value != coldRes.Value || fmt.Sprint(warmRes.Side) != fmt.Sprint(coldRes.Side) || warmRes.Trials != coldRes.Trials {
						t.Errorf("p=%d query %d: warm cut %d over %d trials, cold %d over %d, or their sides differ",
							p, q, warmRes.Value, warmRes.Trials, coldRes.Value, coldRes.Trials)
					}
					if wk.AvoidedCollectives != gather.Collectives || wk.AvoidedCommVolume != gather.Words || p > 1 && gather.Words == 0 {
						t.Errorf("p=%d: warm mincut avoided %d supersteps / %d words, want the plan's gather cost %d / %d (> 0 at p > 1)",
							p, wk.AvoidedCollectives, wk.AvoidedCommVolume, gather.Collectives, gather.Words)
					}
					if wk.Supersteps+wk.AvoidedCollectives != ck.Supersteps || wk.CommVolume+wk.AvoidedCommVolume != ck.CommVolume {
						t.Errorf("p=%d: warm %d supersteps / %d words + avoided %d / %d ≠ cold %d / %d", p,
							wk.Supersteps, wk.CommVolume, wk.AvoidedCollectives, wk.AvoidedCommVolume, ck.Supersteps, ck.CommVolume)
					}
					warmOps += wk.MaxOps
					switch {
					case tc.certified:
						certOps = ck.MaxOps
					case p == 1 && i == 0 && q == 0:
						// Sequential trials: the first warm run is the cold run.
						if wk.MaxOps != ck.MaxOps {
							t.Errorf("first warm run: %d ops, cold %d", wk.MaxOps, ck.MaxOps)
						}
					case p == 1:
						if wk.MaxOps >= ck.MaxOps {
							t.Errorf("warm query %d at p=1: %d ops, not below the cold run's %d: the certificate ran again", q, wk.MaxOps, ck.MaxOps)
						}
					}
				}
			}
			if tc.certified && warmOps != certOps {
				t.Errorf("9 warm queries took %d ops, want one certificate's %d", warmOps, certOps)
			}
			if !tc.certified {
				return
			}
			// A re-upload is a new snapshot: its first warm query certifies.
			if _, err := warm.Registry().Put("g", tc.g); err != nil {
				t.Fatal(err)
			}
			req := QueryRequest{Graph: "g", Algorithm: AlgMinCut, Processors: 2, MaxTrials: tc.maxTrials}
			if got := queryExec(t, warm, req).Kernel.MaxOps; got != certOps {
				t.Errorf("first warm query after a re-upload: %d ops, want the certificate's %d", got, certOps)
			}
			if got := queryExec(t, warm, req).Kernel.MaxOps; got != 0 {
				t.Errorf("second warm query after a re-upload: %d ops, want 0", got)
			}
		})
	}
}

// Re-registering a graph under the same name must evict its cached plans
// immediately — a plan may never outlive the snapshot version it
// describes — and the next query must rebuild against the new snapshot.
func TestPlanEvictionOnReplacement(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 2})
	sg1, err := e.Registry().Put("g", testGraph(128, 512))
	if err != nil {
		t.Fatal(err)
	}
	if sg1.Version != 1 {
		t.Fatalf("first registration version = %d, want 1", sg1.Version)
	}
	queryExec(t, e, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 2})
	if got := e.Registry().PlanCount(); got != 1 {
		t.Fatalf("after first query: plan count = %d, want 1", got)
	}

	// Replace with a different graph (more vertices): version bumps, the
	// old plan is gone before any query sees the new snapshot.
	sg2, err := e.Registry().Put("g", testGraph(200, 800))
	if err != nil {
		t.Fatal(err)
	}
	if sg2.Version != 2 {
		t.Fatalf("replacement version = %d, want 2", sg2.Version)
	}
	if got := e.Registry().PlanCount(); got != 0 {
		t.Fatalf("after replacement: plan count = %d, want 0 (stale plan survived)", got)
	}

	res := queryExec(t, e, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 2, IncludeLabels: true})
	if res.Version != 2 {
		t.Errorf("result version = %d, want 2", res.Version)
	}
	if len(res.Labels) != 200 {
		t.Errorf("labels over %d vertices, want 200 (plan rebuilt for old snapshot?)", len(res.Labels))
	}
	if got := e.Registry().PlanCount(); got != 1 {
		t.Errorf("after re-query: plan count = %d, want 1", got)
	}
}

// A plan belongs to its graph version. A query that resolved version 1
// and then saw it replaced still runs warm on version 1's plan, over
// version 1's vertices, and that plan is not counted among the current
// registrations'. The p-independent connectivity labelling is computed
// once per snapshot: its plans at two machine sizes share one array.
func TestPlanBelongsToItsVersion(t *testing.T) {
	var e *Engine
	replaced := false
	e = newTestEngine(t, Config{Workers: 1, MaxProcessors: 4, BeforeExec: func(string) {
		if !replaced {
			replaced = true
			if _, err := e.Registry().Put("g", testGraph(200, 800)); err != nil {
				t.Error(err)
			}
		}
	}})
	if _, err := e.Registry().Put("g", testGraph(128, 512)); err != nil {
		t.Fatal(err)
	}
	res := queryExec(t, e, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 2, IncludeLabels: true})
	if !replaced {
		t.Fatal("the graph was not replaced before the kernel ran")
	}
	if res.Version != 1 || len(res.Labels) != 128 {
		t.Errorf("answer at version %d over %d vertices, want version 1 over 128", res.Version, len(res.Labels))
	}
	if res.Kernel.Supersteps != 0 || res.Kernel.AvoidedCollectives == 0 {
		t.Errorf("racing query ran %d supersteps and avoided %d, want a warm run (0 and > 0)",
			res.Kernel.Supersteps, res.Kernel.AvoidedCollectives)
	}
	if got := e.Registry().PlanCount(); got != 0 {
		t.Errorf("plan count = %d, want 0: the replaced version's plan is not current", got)
	}

	sg, err := e.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	p2, p4 := e.planFor(sg, 2), e.planFor(sg, 4)
	if p2 == p4 || len(p2.Labels) != 200 || &p2.Labels[0] != &p4.Labels[0] {
		t.Errorf("plans at p=2 and p=4 do not share one labelling of the 200 vertices")
	}
	if got := e.Registry().PlanCount(); got != 2 {
		t.Errorf("plan count = %d, want 2", got)
	}

	// Concurrent first queries of a fresh version, beside the plans gauge,
	// build one plan per machine size.
	sg, err = e.Registry().Put("g", testGraph(64, 256))
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*graph.Plan, 9)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = e.planFor(sg, 1<<(i%3))
			e.Registry().PlanCount()
		}()
	}
	wg.Wait()
	for i, pl := range plans {
		if pl != plans[i%3] || pl == nil || &pl.Labels[0] != &plans[0].Labels[0] {
			t.Fatalf("query %d at p=%d got another plan or another labelling", i, 1<<(i%3))
		}
	}
	if got := e.Registry().PlanCount(); got != 3 {
		t.Errorf("plan count = %d, want 3", got)
	}
}

// Plans are cached per machine size: the same graph queried at two
// machine sizes builds two plans, and each skips its own measured costs.
func TestPlanPerMachineSize(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 4})
	if _, err := e.Registry().Put("g", testGraph(128, 512)); err != nil {
		t.Fatal(err)
	}
	queryExec(t, e, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 2})
	queryExec(t, e, QueryRequest{Graph: "g", Algorithm: AlgCC, Processors: 4})
	if got := e.Registry().PlanCount(); got != 2 {
		t.Errorf("plan count = %d, want 2 (one per machine size)", got)
	}
}
