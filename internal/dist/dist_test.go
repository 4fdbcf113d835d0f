package dist

import (
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestEdgeCodecRoundTrip(t *testing.T) {
	es := []graph.Edge{{U: 1, V: 2, W: 3}, {U: 0, V: 100000, W: 1 << 40}}
	got := DecodeEdges(EncodeEdges(es))
	if len(got) != 2 || got[0] != es[0] || got[1] != es[1] {
		t.Fatalf("round trip: %v", got)
	}
}

func TestDecodeEdgesPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged payload accepted")
		}
	}()
	DecodeEdges([]uint64{1, 2})
}

func TestBlockRangeCoversExactly(t *testing.T) {
	err := quick.Check(func(rawN, rawP uint8) bool {
		n := int(rawN)
		p := int(rawP%16) + 1
		prevHi := 0
		for r := 0; r < p; r++ {
			lo, hi := BlockRange(n, p, r)
			if lo != prevHi || hi < lo {
				return false
			}
			prevHi = hi
		}
		return prevHi == n
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestOwnerOfConsistentWithBlockRange(t *testing.T) {
	for _, n := range []int{1, 5, 17, 64} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			for i := 0; i < n; i++ {
				r := OwnerOf(n, p, i)
				lo, hi := BlockRange(n, p, r)
				if i < lo || i >= hi {
					t.Fatalf("OwnerOf(%d,%d,%d) = %d but range [%d,%d)", n, p, i, r, lo, hi)
				}
			}
		}
	}
}

func TestScatterGatherGraph(t *testing.T) {
	g := gen.ErdosRenyiM(40, 120, 1, gen.Config{MaxWeight: 9})
	_, err := bsp.Run(4, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		n, local := ScatterGraph(c, 0, in)
		if n != 40 {
			t.Errorf("rank %d: n = %d", c.Rank(), n)
		}
		all := GatherEdges(c, 0, local)
		if c.Rank() == 0 {
			if len(all) != 120 {
				t.Fatalf("gathered %d edges", len(all))
			}
			for i := range all {
				if all[i] != g.Edges[i] {
					t.Fatalf("edge %d changed: %v vs %v", i, all[i], g.Edges[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalWeightDistributed(t *testing.T) {
	g := gen.Cycle(30, 5)
	_, err := bsp.Run(3, func(c *bsp.Comm) {
		var in *graph.Graph
		if c.Rank() == 0 {
			in = g
		}
		_, local := ScatterGraph(c, 0, in)
		if w := TotalWeight(c, local); w != 150 {
			t.Errorf("total weight = %d, want 150", w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherEdges(t *testing.T) {
	_, err := bsp.Run(3, func(c *bsp.Comm) {
		local := []graph.Edge{{U: int32(c.Rank()), V: int32(c.Rank() + 10), W: 1}}
		all := AllGatherEdges(c, local)
		if len(all) != 3 {
			t.Fatalf("rank %d: %d edges", c.Rank(), len(all))
		}
		for r := 0; r < 3; r++ {
			if all[r].U != int32(r) {
				t.Errorf("rank %d: all[%d] = %v", c.Rank(), r, all[r])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
