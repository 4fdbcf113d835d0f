package mincut

import (
	"reflect"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestContractHeavyEdgesPreservesMinCut(t *testing.T) {
	// A dumbbell with an extremely heavy ring: ring edges can never cross
	// the minimum cut (the bridge), so both rings contract to points once
	// a tight upper bound is supplied (here the known bridge capacity;
	// in general e.g. an ApproxMinCut estimate).
	g := gen.Dumbbell(10, 1_000_000, 1)
	cg, mapping := ContractHeavyEdges(g, 1)
	if cg.N != 2 {
		t.Fatalf("contracted to %d vertices, want 2", cg.N)
	}
	if len(cg.Edges) != 1 || cg.Edges[0].W != 1 {
		t.Fatalf("contracted graph %+v", cg.Edges)
	}
	// Lift the contracted cut back and check it on the original.
	side := make([]bool, g.N)
	for v := range side {
		side[v] = mapping[v] == cg.Edges[0].U
	}
	if g.CutValue(side) != 1 {
		t.Errorf("lifted cut = %d, want 1", g.CutValue(side))
	}
}

func TestContractHeavyEdgesCascades(t *testing.T) {
	// Parallel light edges that combine above the bound must trigger a
	// second contraction round.
	g := graph.New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 1, 3) // combined weight 6 > bound
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	cg, _ := ContractHeavyEdges(g, 5)
	if cg.N != 3 {
		t.Errorf("contracted to %d vertices, want 3", cg.N)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractHeavyEdgesNoOp(t *testing.T) {
	g := gen.Cycle(8, 2)
	cg, mapping := ContractHeavyEdges(g, 100)
	if cg.N != 8 {
		t.Errorf("unweighted-ish cycle contracted: n=%d", cg.N)
	}
	for i, l := range mapping {
		if l != int32(i) {
			t.Fatalf("mapping changed at %d", i)
		}
	}
}

func TestPreprocessingAcceleratesHeavyGraphs(t *testing.T) {
	// End-to-end: preprocess then solve; the answer must match solving
	// the raw graph.
	g := gen.Dumbbell(12, 500, 3)
	st := rng.New(5, 0, 0)
	want := Sequential(g, st, 0.95)
	_, bound := g.MinDegreeVertex()
	cg, mapping := ContractHeavyEdges(g, bound)
	got := Sequential(cg, st, 0.95)
	if got.Value != want.Value {
		t.Errorf("preprocessed cut %d vs raw %d", got.Value, want.Value)
	}
	side := make([]bool, g.N)
	for v := range side {
		side[v] = got.Side[mapping[v]]
	}
	if g.CutValue(side) != want.Value {
		t.Errorf("lifted preprocessed side = %d", g.CutValue(side))
	}
}

func TestAllMinCutsUnique(t *testing.T) {
	g := gen.TwoCliques(8, 2, 6, 1) // unique min cut of value 2
	cuts := AllMinCuts(g, rng.New(9, 0, 0), 0.95)
	if len(cuts) != 1 {
		t.Fatalf("found %d cuts, want 1 unique", len(cuts))
	}
	if cuts[0].Value != 2 || !cuts[0].Check(g) {
		t.Errorf("bad cut %+v", cuts[0].Value)
	}
}

func TestAllMinCutsCycle(t *testing.T) {
	// C5 has C(5,2) = 10 minimum cuts (any two edges).
	g := gen.Cycle(5, 1)
	cuts := AllMinCuts(g, rng.New(11, 0, 0), 0.99)
	if len(cuts) < 8 {
		t.Errorf("found %d of 10 cycle cuts", len(cuts))
	}
	seen := map[string]bool{}
	for _, c := range cuts {
		if c.Value != 2 {
			t.Fatalf("cut value %d, want 2", c.Value)
		}
		if !c.Check(g) {
			t.Fatal("inconsistent cut")
		}
		k := canonicalSideKey(c.Side)
		if seen[k] {
			t.Fatal("duplicate cut returned")
		}
		seen[k] = true
	}
}

func TestAllMinCutsIncludesSingletons(t *testing.T) {
	// Star: every leaf is a minimum cut.
	g := gen.Star(6, 2)
	cuts := AllMinCuts(g, rng.New(4, 0, 0), 0.95)
	if len(cuts) != 5 {
		t.Errorf("star K1,5: found %d cuts, want 5 leaves", len(cuts))
	}
}

func TestAllMinCutsDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	cuts := AllMinCuts(g, rng.New(1, 0, 0), 0.9)
	if len(cuts) == 0 {
		t.Fatal("no zero cuts reported")
	}
	for _, c := range cuts {
		if c.Value != 0 || !c.Check(g) {
			t.Errorf("bad zero cut")
		}
	}
}

func TestAllMinCutsTrivial(t *testing.T) {
	if cuts := AllMinCuts(graph.New(1), rng.New(1, 0, 0), 0.9); cuts != nil {
		t.Error("single vertex should yield no cuts")
	}
}

func TestCanonicalSideKeyOrientationFree(t *testing.T) {
	a := []bool{false, true, true, false}
	b := []bool{true, false, false, true}
	if canonicalSideKey(a) != canonicalSideKey(b) {
		t.Error("complementary sides got different keys")
	}
	c := []bool{false, true, false, false}
	if canonicalSideKey(a) == canonicalSideKey(c) {
		t.Error("distinct cuts share a key")
	}
}

func TestAllMinCutsDeepRecursion(t *testing.T) {
	// Large enough that the eager step leaves > allCutsBaseSize vertices,
	// so ksRecurseAll's tie-preserving recursion actually recurses.
	g := gen.TwoCliques(20, 2, 5, 1) // n=40, m=382, unique min cut 2
	if eagerTarget(g.M()) <= allCutsBaseSize {
		t.Fatalf("test graph too small to force recursion (target %d)", eagerTarget(g.M()))
	}
	cuts := AllMinCuts(g, rng.New(13, 0, 0), 0.9)
	if len(cuts) != 1 {
		t.Fatalf("found %d cuts, want unique", len(cuts))
	}
	if cuts[0].Value != 2 || !cuts[0].Check(g) {
		t.Errorf("bad cut: value %d", cuts[0].Value)
	}
}

func TestAllMinCutsTiesThroughRecursion(t *testing.T) {
	// A graph with several tied minimum cuts that survives the eager step
	// above base-case size: two cliques joined by two separate bridges of
	// weight 1 each to DIFFERENT clique vertices — the minimum cut (2)
	// can be achieved only by the clique bipartition, but adding a
	// pendant path creates extra tied cuts.
	g := gen.TwoCliques(16, 2, 5, 1).Clone()
	// Pendant path of weight-2 edges hung off vertex 0: each of its edges
	// is a cut of value 2, tying the clique separation.
	base := int32(g.N)
	g.N += 3
	g.AddEdge(0, base, 2)
	g.AddEdge(base, base+1, 2)
	g.AddEdge(base+1, base+2, 2)
	cuts := AllMinCuts(g, rng.New(29, 0, 0), 0.95)
	if len(cuts) != 4 { // clique split + 3 path edges
		t.Errorf("found %d tied cuts, want 4", len(cuts))
	}
	for _, c := range cuts {
		if c.Value != 2 || !c.Check(g) {
			t.Errorf("bad tied cut %d", c.Value)
		}
	}
}

func TestMaxTiedSidesBounds(t *testing.T) {
	if maxTiedSides(2) != 4 {
		t.Errorf("floor: %d", maxTiedSides(2))
	}
	if maxTiedSides(10) != 45 {
		t.Errorf("mid: %d", maxTiedSides(10))
	}
	if maxTiedSides(10000) != 4096 {
		t.Errorf("cap: %d", maxTiedSides(10000))
	}
}

func runParallelAllCuts(t *testing.T, g *graph.Graph, p int, seed uint64) []*CutResult {
	t.Helper()
	res, _ := runParallelAllCutsStats(t, g, p, seed)
	return res
}

// runParallelAllCutsStats is runParallelAllCuts plus the run's BSP
// ledger; each rank reads its block of g's edges in place.
func runParallelAllCutsStats(t *testing.T, g *graph.Graph, p int, seed uint64) ([]*CutResult, *bsp.Stats) {
	t.Helper()
	var res []*CutResult
	st, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
		r := ParallelAllMinCuts(c, g.N, g.Edges[lo:hi], rng.New(seed, uint32(c.Rank()), 0), 0.99)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

func TestParallelAllMinCutsCycle(t *testing.T) {
	g := gen.Cycle(6, 1) // C(6,2) = 15 minimum cuts
	for _, p := range []int{1, 2, 4} {
		cuts := runParallelAllCuts(t, g, p, 5)
		if len(cuts) < 13 {
			t.Errorf("p=%d: found %d of 15 cuts", p, len(cuts))
		}
		seen := map[string]bool{}
		for _, c := range cuts {
			if c.Value != 2 || !c.Check(g) {
				t.Fatalf("p=%d: bad cut %d", p, c.Value)
			}
			k := canonicalSideKey(c.Side)
			if seen[k] {
				t.Fatalf("p=%d: duplicate cut", p)
			}
			seen[k] = true
		}
	}
}

func TestParallelAllMinCutsUnique(t *testing.T) {
	g := gen.TwoCliques(10, 2, 6, 1)
	cuts := runParallelAllCuts(t, g, 3, 9)
	if len(cuts) != 1 || cuts[0].Value != 2 {
		t.Errorf("found %d cuts (value %v), want unique value-2 cut", len(cuts), cuts)
	}
}

// TestParallelAllMinCutsDisconnected: a disconnected input's zero cuts
// are the sequential enumeration's, found after one superstep, the edge
// gather.
func TestParallelAllMinCutsDisconnected(t *testing.T) {
	g := graph.New(8)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	want := AllMinCuts(g, rng.New(2, 0, 0), 0.99)
	if len(want) == 0 {
		t.Fatal("no zero cuts")
	}
	for _, p := range []int{1, 2, 4} {
		cuts, st := runParallelAllCutsStats(t, g, p, 2)
		if !reflect.DeepEqual(cuts, want) || st.Supersteps != 1 {
			t.Errorf("p=%d: %d cuts after %d supersteps, want the sequential %d after 1", p, len(cuts), st.Supersteps, len(want))
		}
		for _, c := range cuts {
			if c.Value != 0 || !c.Check(g) {
				t.Errorf("p=%d: bad zero cut", p)
			}
		}
	}
}

// TestAllMinCutsOrderDeterministic: the sides come out ordered by their
// canonical key, never in map iteration order, so repeated calls and
// every machine size return the identical [][]bool.
func TestAllMinCutsOrderDeterministic(t *testing.T) {
	g := gen.Cycle(12, 1) // C(12,2) = 66 tied minimum cuts
	sides := func(cuts []*CutResult) [][]bool {
		out := make([][]bool, len(cuts))
		for i, c := range cuts {
			out[i] = c.Side
		}
		return out
	}
	want := sides(AllMinCuts(g, rng.New(5, 0, 0), 0.99))
	if len(want) != 66 {
		t.Fatalf("found %d of 66 cuts", len(want))
	}
	for rep := 0; rep < 5; rep++ {
		if got := sides(AllMinCuts(g, rng.New(5, 0, 0), 0.99)); !reflect.DeepEqual(got, want) {
			t.Fatalf("repeat %d: sequential sides differ", rep)
		}
	}
	for p := 1; p <= 4; p++ {
		for rep := 0; rep < 3; rep++ {
			if got := sides(runParallelAllCuts(t, g, p, 5)); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d repeat %d: sides differ from the sequential order", p, rep)
			}
		}
	}
}

func TestParallelAllMinCutsMatchesSequential(t *testing.T) {
	g := gen.Star(8, 3) // 7 singleton cuts
	par := runParallelAllCuts(t, g, 4, 3)
	seq := AllMinCuts(g, rng.New(3, 0, 0), 0.99)
	if len(par) != len(seq) {
		t.Errorf("parallel found %d cuts, sequential %d", len(par), len(seq))
	}
}
