package camc

import "testing"

func TestAllMinCutsAPI(t *testing.T) {
	g := ringGraph(6, 1) // C6: C(6,2) = 15 minimum cuts of value 2
	value, sides := AllMinCuts(g, 3, 0.99)
	if value != 2 {
		t.Fatalf("value = %d, want 2", value)
	}
	if len(sides) < 12 {
		t.Errorf("found %d of 15 cycle cuts", len(sides))
	}
	for _, s := range sides {
		if CutValue(g, s) != 2 {
			t.Fatal("side does not certify the value")
		}
	}
}

func TestContractHeavyEdgesAPI(t *testing.T) {
	// Minimum cut 2 (the two light edges); bound 2 contracts the heavy
	// ones.
	square := NewGraph(4)
	square.AddEdge(0, 1, 100)
	square.AddEdge(1, 2, 1)
	square.AddEdge(2, 3, 100)
	square.AddEdge(3, 0, 1)
	// Two 6-cliques of weight-3 edges joined by one weight-7 edge:
	// λ = 7, below the smallest weighted degree (15). An approximate-cut
	// estimate of 4 would contract the bridge and raise the cut to 15;
	// the min-degree bound is always safe.
	cliques := NewGraph(12)
	for c := int32(0); c < 12; c += 6 {
		for u := c; u < c+6; u++ {
			for v := u + 1; v < c+6; v++ {
				cliques.AddEdge(u, v, 3)
			}
		}
	}
	cliques.AddEdge(5, 6, 7)
	_, minDeg := cliques.MinDegreeVertex()

	for _, tc := range []struct {
		name   string
		g      *Graph
		bound  uint64
		wantN  int
		lambda uint64
	}{
		{"square", square, 2, 2, 2},
		{"cliques", cliques, minDeg, 12, 7},
	} {
		cg, mapping := ContractHeavyEdges(tc.g, tc.bound)
		if cg.N != tc.wantN {
			t.Fatalf("%s: contracted N = %d, want %d", tc.name, cg.N, tc.wantN)
		}
		res, err := MinCut(cg, Options{Processors: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != tc.lambda {
			t.Errorf("%s: cut on contracted graph = %d, want %d", tc.name, res.Value, tc.lambda)
		}
		lifted := make([]bool, tc.g.N)
		for v := range lifted {
			lifted[v] = res.Side[mapping[v]]
		}
		if CutValue(tc.g, lifted) != tc.lambda {
			t.Errorf("%s: lifted cut = %d, want %d", tc.name, CutValue(tc.g, lifted), tc.lambda)
		}
	}
}

func TestMaxFlowAPI(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 3, 7)
	g.AddEdge(0, 2, 9)
	g.AddEdge(2, 3, 4)
	value, side := MaxFlow(g, 0, 3)
	if value != 6 {
		t.Errorf("max flow = %d, want 6", value)
	}
	if !side[0] || side[3] {
		t.Errorf("source side wrong: %v", side)
	}
	if CutValue(g, side) != value {
		t.Error("min s-t cut does not certify the flow (duality)")
	}
}
