package service

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
	"repro/internal/planner"
)

// TestPortfolioConformance drives Run — the only way a kernel executes —
// over every member of the kernel table in every shape, on one seeded
// graph, and holds each answer to a sequential
// oracle (BFS labels, Stoer–Wagner's value, CutValue of the returned
// side, approxcut's 4·log₂n bracket) and to the same member's answers in
// the other shapes. A member registered tomorrow is covered with no edit
// here.
func TestPortfolioConformance(t *testing.T) {
	g := testGraph(64, 160)
	sg, err := NewRegistry().Put("g", g)
	if err != nil {
		t.Fatal(err)
	}
	bfs := cc.Sequential(g)
	lambda := mincut.StoerWagner(g).Value
	check := map[string]func(t *testing.T, res *QueryResult){
		AlgCC: func(t *testing.T, res *QueryResult) {
			if res.Components != bfs.Count || !slices.Equal(res.Labels, bfs.Labels) {
				t.Errorf("cc: %d components, labelling differs from BFS (%d components)", res.Components, bfs.Count)
			}
		},
		AlgMinCut: func(t *testing.T, res *QueryResult) {
			if res.Value != lambda {
				t.Errorf("mincut: value %d, Stoer–Wagner %d", res.Value, lambda)
			}
			if got := g.CutValue(res.Side); got != res.Value {
				t.Errorf("mincut: value %d but CutValue(side) = %d", res.Value, got)
			}
		},
		AlgApproxCut: func(t *testing.T, res *QueryResult) {
			const slack = 4 * 6 // 4·log₂64
			if res.Value*slack < lambda || res.Value > lambda*slack {
				t.Errorf("approxcut: %d outside [%d/%d, %d·%d]", res.Value, lambda, slack, lambda, slack)
			}
		},
	}

	members := append(slices.Clone(planner.Kernels()), planner.Lookup(AlgApproxCut, ""))
	for _, k := range members {
		t.Run(k.Name, func(t *testing.T) {
			pr, err := normalize(&QueryRequest{Graph: "g", Algorithm: k.Algorithm})
			if err != nil {
				t.Fatal(err)
			}
			run := func(kern string, sh planner.Shape) *QueryResult {
				t.Helper()
				res, err := Run(context.Background(), sg, k.Algorithm, kern, pr, sh)
				if err != nil {
					t.Fatalf("%+v: %v", sh, err)
				}
				check[k.Algorithm](t, res)
				if res.Kernel.Kernel != kern {
					t.Errorf("%+v: result names kernel %q, ran %q", sh, res.Kernel.Kernel, kern)
				}
				return res
			}
			same := func(what string, a, b *QueryResult) {
				t.Helper()
				if a.Value != b.Value || a.Components != b.Components || a.Trials != b.Trials || !slices.Equal(a.Labels, b.Labels) {
					t.Errorf("%s: (%d,%d,%d) != (%d,%d,%d)", what,
						a.Value, a.Components, a.Trials, b.Value, b.Components, b.Trials)
				}
			}
			kern := k.Name
			if k.Cost == nil {
				kern = "" // unscored members are reachable only as their algorithm's default
			}
			p1 := run(kern, planner.Shape{P: 1})
			p2 := run(kern, planner.Shape{P: 2})
			if p1.Kernel.P != 1 || p2.Kernel.P != 2 {
				t.Errorf("pooled shapes ran at p=%d and p=%d, want 1 and 2", p1.Kernel.P, p2.Kernel.P)
			}
			m, err := bsp.NewMachine(2)
			if err != nil {
				t.Fatal(err)
			}
			// A caller-supplied machine is the pooled machine minus the pool:
			// same ranks, same streams, same answer — for every algorithm.
			same("caller-supplied machine vs pooled p=2", run(kern, planner.Shape{Machine: m}), p2)
			if k.Algorithm != AlgApproxCut {
				// Exact answers are also p-invariant (the estimate is not: its
				// sampling streams are per rank).
				same("pooled p=1 vs p=2", p1, p2)
			}
			if k.Default && kern != "" {
				same(`default resolution ("") vs by name`, run("", planner.Shape{P: 2}), p2)
			}
		})
	}
}

// TestRegisteredKernelReachesServingAndCalibration is the "adding a
// portfolio member is one Register call" guarantee: a kernel this test
// registers — touching nothing in internal/service — is executed by a
// pinned query and by CalibrateBuiltins, both through Kernel.Run.
func TestRegisteredKernelReachesServingAndCalibration(t *testing.T) {
	var runs atomic.Int64
	t.Cleanup(planner.Register(&planner.Kernel{
		Name: "fake", Algorithm: AlgCC,
		Cost: func(st planner.GraphStats, p int, _ planner.Params) perfmodel.Sample {
			return perfmodel.Sample{Comp: float64(st.N+st.M) / float64(p), Supersteps: 8, P: float64(p)}
		},
		Run: func(c *bsp.Comm, n int, local []graph.Edge, _ planner.RunParams, _ *graph.Plan, _ planner.Checkpoint) *planner.Outcome {
			if c.Rank() == 0 {
				runs.Add(1)
			}
			r := cc.LabelPropagation(c, n, local)
			return &planner.Outcome{Components: r.Count, Labels: r.Labels}
		},
	}))

	g := testGraph(64, 160)
	e := newTestEngine(t, Config{MaxProcessors: 2})
	if _, err := e.Registry().Put("g", g); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC, Kernel: "fake", Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || rep.Result.Kernel.Kernel != "fake" || rep.Result.Kernel.P != 2 {
		t.Fatalf("pinned query: fake ran %d times, result kernel %+v", runs.Load(), rep.Result.Kernel)
	}
	if want := cc.Sequential(g); rep.Result.Components != want.Count || !slices.Equal(rep.Result.Labels, want.Labels) {
		t.Fatalf("pinned query: %d components, want BFS's %d", rep.Result.Components, want.Count)
	}

	pl := planner.New(planner.ModeStatic)
	if err := pl.CalibrateBuiltins(1); err != nil {
		t.Fatalf("calibration: %v", err)
	}
	if runs.Load() < 2 {
		t.Fatal("CalibrateBuiltins never ran the registered kernel")
	}
	if !slices.Contains(pl.Calibrated(), "fake") {
		t.Fatalf("calibrated kernels %v lack the registered one", pl.Calibrated())
	}
}
