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

// TestKernelEquivalence proves every CC kernel produces the canonical
// first-occurrence dense labelling — bit-identical labels, not merely the
// same partition — on the golden graphs, across p in {1, 4, 16} for the
// BSP kernels. This is what lets a baseline stand in for the served
// kernel in any comparison without changing a result.
func TestKernelEquivalence(t *testing.T) {
	bspKernels := map[string]func(c *bsp.Comm, n int, local []graph.Edge) *Result{
		"sampling": func(c *bsp.Comm, n int, local []graph.Edge) *Result {
			return Parallel(c, n, local, rng.New(11, uint32(c.Rank()), 0), Options{})
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
