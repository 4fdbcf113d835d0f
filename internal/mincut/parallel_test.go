package mincut

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func parallelCut(t testing.TB, g *graph.Graph, p int, seed uint64, opts Options) *CutResult {
	t.Helper()
	var res *CutResult
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := dist.ScatterGraph(c, 0, in)
		st := rng.New(seed, uint32(c.Rank()), 0)
		r := Parallel(c, n, local, st, opts)
		if c.Rank() == 0 {
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParallelKnownCuts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"cycle", gen.Cycle(48, 2), 4},
		{"twocliques", gen.TwoCliques(12, 2, 4, 1), 2},
		{"dumbbell", gen.Dumbbell(16, 4, 1), 1},
		{"grid", gen.Grid(6, 8, 1), 2},
		{"star", gen.Star(20, 3), 3},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2, 4} {
			got := parallelCut(t, c.g, p, 7, Options{SuccessProb: 0.95})
			if got.Value != c.want {
				t.Errorf("%s p=%d: MC = %d, want %d", c.name, p, got.Value, c.want)
			}
			if !got.Check(c.g) {
				t.Errorf("%s p=%d: inconsistent partition", c.name, p)
			}
		}
	}
}

func TestParallelMatchesStoerWagner(t *testing.T) {
	for seed := uint64(40); seed < 45; seed++ {
		g := gen.ErdosRenyiM(48, 320, seed, gen.Config{MaxWeight: 4})
		if !g.IsConnected() {
			continue
		}
		want := StoerWagner(g).Value
		got := parallelCut(t, g, 4, seed, Options{SuccessProb: 0.95})
		if got.Value != want {
			t.Errorf("seed %d: parallel MC = %d, SW = %d", seed, got.Value, want)
		}
	}
}

func TestParallelDisconnected(t *testing.T) {
	g := graph.New(12)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(3, 4, 5)
	got := parallelCut(t, g, 3, 1, Options{})
	if got.Value != 0 {
		t.Errorf("disconnected: %d, want 0", got.Value)
	}
	if !got.Check(g) {
		t.Error("inconsistent zero-cut partition")
	}
}

func TestParallelGroupMode(t *testing.T) {
	// Force p > trials so processor groups run distributed trials:
	// MaxTrials=2 with p=6 gives two 3-processor groups.
	g := gen.TwoCliques(10, 2, 6, 1)
	got := parallelCut(t, g, 6, 3, Options{SuccessProb: 0.9, MaxTrials: 2})
	if !got.Check(g) {
		t.Fatal("inconsistent partition from group mode")
	}
	// Two eager+recursive trials on this graph find the bridge cut
	// essentially always; accept the min-degree fallback bound too.
	if got.Value != 2 {
		t.Errorf("group-mode MC = %d, want 2", got.Value)
	}
	if got.Trials != 2 {
		t.Errorf("trials = %d, want 2", got.Trials)
	}
}

func TestParallelGroupModeSingleGroup(t *testing.T) {
	// p > trials with trials=1: all processors form one group and run a
	// single fully distributed trial.
	g := gen.Cycle(40, 3)
	got := parallelCut(t, g, 4, 11, Options{SuccessProb: 0.9, MaxTrials: 1})
	if !got.Check(g) {
		t.Fatal("inconsistent partition")
	}
	if got.Value != 6 {
		t.Errorf("single distributed trial on cycle: %d, want 6", got.Value)
	}
}

func TestParallelDeterministicSeed(t *testing.T) {
	g := gen.ErdosRenyiM(40, 200, 50, gen.Config{MaxWeight: 3})
	a := parallelCut(t, g, 4, 13, Options{})
	b := parallelCut(t, g, 4, 13, Options{})
	if a.Value != b.Value {
		t.Errorf("same seed, different values: %d vs %d", a.Value, b.Value)
	}
	for i := range a.Side {
		if a.Side[i] != b.Side[i] {
			t.Fatalf("sides differ at %d", i)
		}
	}
}

func TestParallelAgreesAcrossP(t *testing.T) {
	g := gen.WattsStrogatz(64, 6, 0.3, 5, gen.Config{})
	want := StoerWagner(g).Value
	for _, p := range []int{1, 2, 3, 6} {
		got := parallelCut(t, g, p, 21, Options{SuccessProb: 0.95})
		if got.Value != want {
			t.Errorf("p=%d: %d, want %d", p, got.Value, want)
		}
	}
}

func TestSparseBulkContractMatchesSequential(t *testing.T) {
	g := gen.ErdosRenyiM(30, 200, 9, gen.Config{MaxWeight: 5})
	mapping := make([]int32, 30)
	for i := range mapping {
		mapping[i] = int32(i / 3) // 30 -> 10
	}
	want := g.Relabel(mapping, 10)
	for _, p := range []int{1, 2, 4, 5} {
		_, err := bsp.Run(p, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			_, local := dist.ScatterGraph(c, 0, in)
			out := sparseBulkContract(c, local, mapping)
			all := dist.GatherEdges(c, 0, out)
			if c.Rank() == 0 {
				combined := graph.CombineParallel(all)
				if len(combined) != len(want.Edges) {
					t.Fatalf("p=%d: %d combined edges, want %d", p, len(combined), len(want.Edges))
				}
				for i := range combined {
					if combined[i] != want.Edges[i] {
						t.Fatalf("p=%d: edge %d = %v, want %v", p, i, combined[i], want.Edges[i])
					}
				}
				// The distributed result must already be fully combined:
				// no duplicate keys across the gathered runs.
				seen := map[[2]int32]bool{}
				for _, e := range all {
					k := [2]int32{e.U, e.V}
					if seen[k] {
						t.Fatalf("p=%d: duplicate group %v survived", p, k)
					}
					seen[k] = true
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestResolveBoundariesSpanningGroups(t *testing.T) {
	// Manually construct sorted runs where one group spans processors:
	// rank 0: (0,1,5) (2,3,7) ; rank 1: (2,3,1) (entire run one group)
	// rank 2: (2,3,2) (4,5,9). The (2,3) group must collapse into rank 0
	// with weight 10.
	_, err := bsp.Run(3, func(c *bsp.Comm) {
		var run []graph.Edge
		switch c.Rank() {
		case 0:
			run = []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 7}}
		case 1:
			run = []graph.Edge{{U: 2, V: 3, W: 1}}
		case 2:
			run = []graph.Edge{{U: 2, V: 3, W: 2}, {U: 4, V: 5, W: 9}}
		}
		out := resolveBoundaries(c, run)
		all := dist.GatherEdges(c, 0, out)
		if c.Rank() == 0 {
			want := []graph.Edge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 10}, {U: 4, V: 5, W: 9}}
			if len(all) != len(want) {
				t.Fatalf("got %v, want %v", all, want)
			}
			for i := range want {
				if all[i] != want[i] {
					t.Fatalf("edge %d: got %v, want %v", i, all[i], want[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestResolveBoundariesEmptyRuns(t *testing.T) {
	_, err := bsp.Run(4, func(c *bsp.Comm) {
		var run []graph.Edge
		if c.Rank() == 1 {
			run = []graph.Edge{{U: 1, V: 2, W: 3}}
		}
		out := resolveBoundaries(c, run)
		total := dist.CountEdges(c, out)
		if total != 1 {
			t.Errorf("rank %d: total %d, want 1", c.Rank(), total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerDistributedMatchesTarget(t *testing.T) {
	g := gen.ErdosRenyiM(120, 1200, 10, gen.Config{MaxWeight: 3})
	for _, p := range []int{1, 3, 5} {
		_, err := bsp.Run(p, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			n, local := dist.ScatterGraph(c, 0, in)
			st := rng.New(33, uint32(c.Rank()), 0)
			edges, count, mapping := eagerDistributed(c, n, local, 20, st)
			if count > 20 || count < 2 {
				t.Errorf("p=%d: contracted to %d vertices", p, count)
			}
			// Total weight preserved (no edges lost, only merged/looped).
			all := dist.GatherEdges(c, 0, edges)
			if c.Rank() == 0 {
				cg := &graph.Graph{N: count, Edges: all}
				if err := cg.Validate(); err != nil {
					t.Errorf("p=%d: invalid contracted graph: %v", p, err)
				}
				// Lifted singleton cut consistency.
				side := make([]bool, g.N)
				for v := range side {
					side[v] = mapping[v] == 0
				}
				cside := make([]bool, count)
				cside[0] = true
				if g.CutValue(side) != cg.CutValue(cside) {
					t.Errorf("p=%d: lifted cut mismatch", p)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecursiveDistributedFindsCut(t *testing.T) {
	g := gen.TwoCliques(24, 2, 5, 1) // min cut 2, n=48
	if g.N <= BaseCaseSize {
		t.Fatalf("test graph too small to force the processor-group recursion (n=%d)", g.N)
	}
	m := graph.MatrixFromGraph(g)
	for _, p := range []int{1, 2, 3, 4, 5} {
		best := uint64(1 << 62)
		// A few attempts: recursive contraction is randomized with
		// success >= 1/O(log n) per run.
		for attempt := 0; attempt < 6 && best != 2; attempt++ {
			_, err := bsp.Run(p, func(c *bsp.Comm) {
				var in *graph.Matrix
				if c.Rank() == 0 {
					in = m
				}
				blk := dist.ScatterMatrix(c, 0, in)
				st := rng.New(uint64(100+attempt), uint32(c.Rank()), 0)
				val, side := recursiveDistributed(c, blk, st)
				if c.Rank() == 0 {
					if g.CutValue(side) != val {
						t.Errorf("p=%d: side value %d != reported %d", p, g.CutValue(side), val)
					}
					if val < best {
						best = val
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if best != 2 {
			t.Errorf("p=%d: best over attempts = %d, want 2", p, best)
		}
	}
}

func TestPackUnpackSide(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		side := make([]bool, n)
		for i := range side {
			side[i] = i%3 == 0
		}
		got := unpackSide(packSide(side))
		if len(got) != n {
			t.Fatalf("n=%d: length %d", n, len(got))
		}
		for i := range side {
			if got[i] != side[i] {
				t.Fatalf("n=%d: bit %d flipped", n, i)
			}
		}
	}
}
