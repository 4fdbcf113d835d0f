package mincut

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestTwoVertexGraph(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 7)
	for _, f := range []func() *CutResult{
		func() *CutResult { return Sequential(g, rng.New(1, 0, 0), 0.9) },
		func() *CutResult { return StoerWagner(g) },
		func() *CutResult { return KargerStein(g, rng.New(1, 0, 0), 0.9) },
		func() *CutResult { return parallelHelper(t, g, 2, 1) },
	} {
		res := f()
		if res.Value != 7 {
			t.Errorf("two-vertex cut = %d, want 7", res.Value)
		}
		if !res.Check(g) {
			t.Error("inconsistent partition")
		}
	}
}

func parallelHelper(t *testing.T, g *graph.Graph, p int, seed uint64) *CutResult {
	t.Helper()
	var res *CutResult
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		r := Parallel(c, n, local, rng.New(seed, uint32(c.Rank()), 0), Options{})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleVertex(t *testing.T) {
	g := graph.New(1)
	if res := Sequential(g, rng.New(1, 0, 0), 0.9); res.Value != 0 {
		t.Errorf("single vertex cut = %d", res.Value)
	}
	if res := StoerWagner(g); res.Value != 0 {
		t.Errorf("SW single vertex = %d", res.Value)
	}
}

func TestHeavyWeights(t *testing.T) {
	// Weights near 2^40: cumulative sums must not misbehave.
	g := graph.New(6)
	heavy := uint64(1) << 40
	g.AddEdge(0, 1, heavy)
	g.AddEdge(1, 2, heavy)
	g.AddEdge(2, 0, heavy)
	g.AddEdge(3, 4, heavy)
	g.AddEdge(4, 5, heavy)
	g.AddEdge(5, 3, heavy)
	g.AddEdge(0, 3, 3)
	want := uint64(3)
	if res := Sequential(g, rng.New(2, 0, 0), 0.95); res.Value != want {
		t.Errorf("heavy-weight cut = %d, want %d", res.Value, want)
	}
	if res := StoerWagner(g); res.Value != want {
		t.Errorf("SW heavy-weight cut = %d", res.Value)
	}
}

func TestUnevenGroupSplit(t *testing.T) {
	// p=5, trials=2: ranks 0 and 1 run one trial each, ranks 2-4 idle.
	g := gen.Cycle(36, 2)
	var res *CutResult
	_, err := bsp.Run(5, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		r := Parallel(c, n, local, rng.New(77, uint32(c.Rank()), 0), Options{MaxTrials: 2})
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 || !res.Check(g) {
		t.Errorf("uneven groups: cut = %d, want 4", res.Value)
	}
}

func TestParallelMoreProcsThanVertices(t *testing.T) {
	g := gen.Complete(6, 2) // min cut 10
	res := parallelHelper(t, g, 8, 5)
	if res.Value != 10 {
		t.Errorf("p>n: cut = %d, want 10", res.Value)
	}
	if !res.Check(g) {
		t.Error("inconsistent partition")
	}
}

func TestStarParallel(t *testing.T) {
	// High-degree hub stresses the distributed edge array's robustness to
	// skew (the motivation for edge arrays over adjacency lists, §3).
	g := gen.Star(64, 3)
	res := parallelHelper(t, g, 4, 3)
	if res.Value != 3 || !res.Check(g) {
		t.Errorf("star cut = %d, want 3", res.Value)
	}
}

func TestParallelEdgesInInput(t *testing.T) {
	// The algorithms accept multigraphs.
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 3, 1)
		g.AddEdge(3, 0, 1)
	}
	res := Sequential(g, rng.New(4, 0, 0), 0.95)
	if res.Value != 6 { // ring of weight-3 super-edges: cut = 2*3
		t.Errorf("multigraph cut = %d, want 6", res.Value)
	}
}

func TestDenseRegimeDetection(t *testing.T) {
	if !denseRegime(100, 2000) { // n²/log n ≈ 1505
		t.Error("dense graph not detected")
	}
	if denseRegime(1000, 5000) {
		t.Error("sparse graph flagged dense")
	}
	if !denseRegime(2, 1) {
		t.Error("tiny graphs should take the dense path")
	}
}

func TestSequentialDenseFastPath(t *testing.T) {
	// Near-complete graph: the AM fast path must give the right answer.
	g := gen.Complete(24, 2) // min cut 46
	res := Sequential(g, rng.New(6, 0, 0), 0.95)
	if res.Value != 46 {
		t.Errorf("dense-path cut = %d, want 46", res.Value)
	}
	if !res.Check(g) {
		t.Error("inconsistent partition")
	}
	// Dense but not complete, with a planted sparse cut.
	h := gen.TwoCliques(12, 2, 9, 1) // two dense K12s, min cut 2
	res = Sequential(h, rng.New(7, 0, 0), 0.95)
	if res.Value != 2 {
		t.Errorf("two-clique dense cut = %d, want 2", res.Value)
	}
}
