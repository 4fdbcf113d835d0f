package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1), 1)
	}
	return g
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count = %d", uf.Count())
	}
	if !uf.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union reported merge")
	}
	uf.Union(2, 3)
	if uf.Count() != 3 {
		t.Errorf("count = %d, want 3", uf.Count())
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity queries wrong")
	}
}

func TestUnionFindLabelsDense(t *testing.T) {
	uf := NewUnionFind(6)
	uf.Union(0, 3)
	uf.Union(1, 4)
	labels := uf.Labels()
	if labels[0] != labels[3] || labels[1] != labels[4] {
		t.Errorf("labels do not respect unions: %v", labels)
	}
	max := int32(0)
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	if int(max)+1 != uf.Count() {
		t.Errorf("labels not dense: max %d, count %d", max, uf.Count())
	}
	if labels[0] != 0 {
		t.Errorf("vertex 0 should get label 0, got %d", labels[0])
	}
}

func TestConnectedComponentsPath(t *testing.T) {
	g := pathGraph(10)
	labels, k := g.ConnectedComponents()
	if k != 1 {
		t.Fatalf("path has %d components", k)
	}
	for v, l := range labels {
		if l != 0 {
			t.Errorf("vertex %d label %d", v, l)
		}
	}
}

func TestConnectedComponentsForest(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	// 5 and 6 isolated
	_, k := g.ConnectedComponents()
	if k != 4 {
		t.Errorf("components = %d, want 4", k)
	}
}

func TestIsConnected(t *testing.T) {
	if !pathGraph(5).IsConnected() {
		t.Error("path not connected")
	}
	g := pathGraph(5)
	g.Edges = g.Edges[:len(g.Edges)-1]
	if g.IsConnected() {
		t.Error("broken path reported connected")
	}
	if !New(0).IsConnected() || !New(1).IsConnected() {
		t.Error("trivial graphs must be connected")
	}
	if New(2).IsConnected() {
		t.Error("two isolated vertices reported connected")
	}
}

func TestComponentOf(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(3, 4, 1)
	side := g.ComponentOf(0)
	want := []bool{true, true, false, false, false}
	for i := range want {
		if side[i] != want[i] {
			t.Errorf("ComponentOf(0)[%d] = %v, want %v", i, side[i], want[i])
		}
	}
}

func TestCSRMatchesUnionFind(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 30, 40)
		_, k1 := g.ConnectedComponents()
		_, k2 := BuildCSR(g).ConnectedComponents()
		return k1 == k2
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestCSRStructure(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 7)
	c := BuildCSR(g)
	if c.Degree(1) != 2 {
		t.Errorf("degree(1) = %d, want 2", c.Degree(1))
	}
	if c.Degree(3) != 0 {
		t.Errorf("degree(3) = %d, want 0", c.Degree(3))
	}
	nb := c.Neighbors(1)
	if len(nb) != 2 {
		t.Fatalf("neighbors(1) = %v", nb)
	}
	seen := map[int32]bool{nb[0]: true, nb[1]: true}
	if !seen[0] || !seen[2] {
		t.Errorf("neighbors(1) = %v, want {0,2}", nb)
	}
}

func TestCSRIsConnected(t *testing.T) {
	if !BuildCSR(pathGraph(8)).IsConnected() {
		t.Error("CSR path not connected")
	}
	if BuildCSR(New(3)).IsConnected() {
		t.Error("CSR empty graph on 3 vertices reported connected")
	}
}

// Property: labels from CSR BFS and union-find induce the same partition.
func TestLabelPartitionsAgree(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := randomGraph(seed, 25, 30)
		l1, _ := g.ConnectedComponents()
		l2, _ := BuildCSR(g).ConnectedComponents()
		for i := 0; i < g.N; i++ {
			for j := i + 1; j < g.N; j++ {
				if (l1[i] == l1[j]) != (l2[i] == l2[j]) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestPooledUnionFindConcurrent is what `make race` watches in this
// package: concurrent queries check union-finds and remaps out of the two
// pools defined here, so a structure handed back while still in use, or
// one Reset leaves dirty, shows as a race or a wrong labelling.
func TestPooledUnionFindConcurrent(t *testing.T) {
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 16 + (w*rounds+r)%48
				uf, remap := GetUnionFind(), GetRemap(n)
				uf.Reset(n)
				for v := int32(2); int(v) < n; v++ {
					uf.Union(v, v-2) // evens and odds: two components
				}
				for v := int32(0); int(v) < n; v++ {
					if got := remap.Of(uf.Find(v)); got != v%2 {
						t.Errorf("worker %d round %d: vertex %d labelled %d", w, r, v, got)
						break
					}
				}
				if uf.Count() != 2 {
					t.Errorf("worker %d round %d: Count = %d, want 2", w, r, uf.Count())
				}
				PutRemap(remap)
				PutUnionFind(uf)
			}
		}(w)
	}
	wg.Wait()
}
