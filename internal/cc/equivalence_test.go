package cc

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// runBSP executes a BSP CC kernel over p processors and returns rank 0's
// result.
func runBSP(t testing.TB, g *graph.Graph, p int, body func(c *bsp.Comm, n int, local []graph.Edge) *Result) *Result {
	t.Helper()
	var res *Result
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		r := body(c, n, local)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equivalenceGraphs() map[string]*graph.Graph {
	path := graph.New(400)
	for i := int32(0); i < 399; i++ {
		path.AddEdge(i, i+1, 1)
	}
	grid := graph.New(300) // 20x15 grid
	for r := int32(0); r < 20; r++ {
		for c := int32(0); c < 15; c++ {
			v := r*15 + c
			if c+1 < 15 {
				grid.AddEdge(v, v+1, 1)
			}
			if r+1 < 20 {
				grid.AddEdge(v, v+15, 1)
			}
		}
	}
	return map[string]*graph.Graph{
		"golden-blobs": multiComponentGraph(4),
		"path-400":     path,
		"grid-20x15":   grid,
		"er-300":       gen.ErdosRenyiM(300, 900, 5, gen.Config{}),
		"ws-400":       gen.WattsStrogatz(400, 6, 0.2, 9, gen.Config{}),
	}
}

// TestKernelEquivalence proves every registered CC kernel produces the
// canonical first-occurrence dense labelling — bit-identical labels, not
// merely the same partition — on the golden graphs, across p in
// {1, 4, 16} for the BSP kernels. This is what lets the query planner
// swap kernels per query without ever changing a result.
func TestKernelEquivalence(t *testing.T) {
	bspKernels := map[string]func(c *bsp.Comm, n int, local []graph.Edge) *Result{
		"sampling": func(c *bsp.Comm, n int, local []graph.Edge) *Result {
			return Parallel(c, n, local, rng.New(11, uint32(c.Rank()), 0), Options{})
		},
		"lowround": func(c *bsp.Comm, n int, local []graph.Edge) *Result {
			return LowRound(c, n, local, Options{})
		},
		"labelprop": func(c *bsp.Comm, n int, local []graph.Edge) *Result {
			return LabelPropagation(c, n, local)
		},
	}
	for gname, g := range equivalenceGraphs() {
		want := Sequential(g)
		check := func(t *testing.T, kernel string, got *Result) {
			t.Helper()
			if got.Count != want.Count {
				t.Fatalf("%s on %s: count = %d, want %d", kernel, gname, got.Count, want.Count)
			}
			for v := range want.Labels {
				if got.Labels[v] != want.Labels[v] {
					t.Fatalf("%s on %s: label[%d] = %d, want %d (not bit-identical)",
						kernel, gname, v, got.Labels[v], want.Labels[v])
				}
			}
		}
		for kname, body := range bspKernels {
			for _, p := range []int{1, 4, 16} {
				t.Run(fmt.Sprintf("%s/%s/p=%d", gname, kname, p), func(t *testing.T) {
					check(t, kname, runBSP(t, g, p, body))
				})
			}
		}
		t.Run(gname+"/shared-unionfind", func(t *testing.T) {
			check(t, "shared-unionfind", SharedMemory(g, 4))
		})
	}
}

// TestLowRoundFewRounds pins the kernel's reason to exist: on a
// high-diameter path with topology-aligned ids it converges in 2 rounds
// where label propagation needs Θ(log d).
func TestLowRoundFewRounds(t *testing.T) {
	path := graph.New(4096)
	for i := int32(0); i < 4095; i++ {
		path.AddEdge(i, i+1, 1)
	}
	lr := runBSP(t, path, 4, func(c *bsp.Comm, n int, local []graph.Edge) *Result {
		return LowRound(c, n, local, Options{})
	})
	if lr.Count != 1 {
		t.Fatalf("path components = %d, want 1", lr.Count)
	}
	if lr.Iterations > 3 {
		t.Errorf("lowround took %d rounds on a path, want <= 3", lr.Iterations)
	}
	lp := runBSP(t, path, 4, func(c *bsp.Comm, n int, local []graph.Edge) *Result {
		return LabelPropagation(c, n, local)
	})
	if lp.Iterations <= lr.Iterations {
		t.Errorf("label propagation rounds (%d) should exceed lowround rounds (%d) on a path",
			lp.Iterations, lr.Iterations)
	}
}

// TestLowRoundPlanShortcut mirrors the cc.Parallel warm path: a matching
// plan returns its labels with zero cold work and the avoided cost on
// the ledger.
func TestLowRoundPlanShortcut(t *testing.T) {
	g := multiComponentGraph(4)
	pl := g.Snapshot().PlanFacts()
	pl.CCCost = graph.CollectiveCost{Collectives: 3, Words: 123}
	var res *Result
	st, err := bsp.Run(2, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		r := LowRound(c, n, local, Options{Plan: pl})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("warm lowround iterated %d times", res.Iterations)
	}
	want := Sequential(g)
	for v := range want.Labels {
		if res.Labels[v] != want.Labels[v] {
			t.Fatalf("warm label[%d] = %d, want %d", v, res.Labels[v], want.Labels[v])
		}
	}
	if st.AvoidedCollectives == 0 || st.AvoidedCommVolume == 0 {
		t.Errorf("plan shortcut left no avoided-cost trace: %+v", st)
	}
}
