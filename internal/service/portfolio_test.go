package service

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/mincut"
	"repro/internal/planner"
)

// TestPortfolioConformance drives Run — the only way a kernel executes —
// over every algorithm's kernel in every shape, on one seeded graph, and
// holds each answer to a sequential oracle (BFS labels, Stoer–Wagner's
// value, CutValue of the returned side, approxcut's 4·log₂n bracket) and
// to the same kernel's answers in the other shapes.
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

	for alg, holds := range check {
		k := planner.For(alg)
		t.Run(k.Name, func(t *testing.T) {
			pr, err := normalize(&QueryRequest{Graph: "g", Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			run := func(sh planner.Shape) *QueryResult {
				t.Helper()
				res, err := Run(context.Background(), sg, alg, pr, sh)
				if err != nil {
					t.Fatalf("%+v: %v", sh, err)
				}
				holds(t, res)
				if res.Kernel.Kernel != k.Name {
					t.Errorf("%+v: result names kernel %q, ran %q", sh, res.Kernel.Kernel, k.Name)
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
			p1 := run(planner.Shape{P: 1})
			p2 := run(planner.Shape{P: 2})
			if p1.Kernel.P != 1 || p2.Kernel.P != 2 {
				t.Errorf("pooled shapes ran at p=%d and p=%d, want 1 and 2", p1.Kernel.P, p2.Kernel.P)
			}
			m, err := bsp.NewMachine(2)
			if err != nil {
				t.Fatal(err)
			}
			// A caller-supplied machine is the pooled machine minus the pool:
			// same ranks, same streams, same answer — for every algorithm.
			same("caller-supplied machine vs pooled p=2", run(planner.Shape{Machine: m}), p2)
			if alg != AlgApproxCut {
				// Exact answers are also p-invariant (the estimate is not: its
				// sampling streams are per rank).
				same("pooled p=1 vs p=2", p1, p2)
			}
		})
	}
}
