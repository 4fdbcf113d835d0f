package graph

import "testing"

func TestProbePath(t *testing.T) {
	s := pathGraph(100).Snapshot()
	pr := s.Probe()
	if pr.EstDiameter != 99 {
		t.Fatalf("path diameter estimate = %d, want 99", pr.EstDiameter)
	}
	if pr.WeightSkew != 1 {
		t.Fatalf("uniform weights skew = %v, want 1", pr.WeightSkew)
	}
	if again := s.Probe(); again != pr {
		t.Fatal("probe not cached on the snapshot")
	}
}

func TestProbeDoubleSweep(t *testing.T) {
	// Star with a tail hanging off a leaf: BFS from the hub's vertex 0
	// underestimates; the second sweep from the farthest vertex recovers
	// the true diameter.
	g := New(12)
	for v := 1; v <= 5; v++ {
		g.AddEdge(0, int32(v), 1)
	}
	for v := 5; v < 11; v++ {
		g.AddEdge(int32(v), int32(v+1), 1)
	}
	pr := g.Snapshot().Probe()
	// True diameter: leaf 1..4 -> hub -> 5 -> ... -> 11 = 2 + 6 = 8.
	if pr.EstDiameter != 8 {
		t.Fatalf("double-sweep diameter = %d, want 8", pr.EstDiameter)
	}
}

func TestProbeWeightSkew(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 10)
	pr := g.Snapshot().Probe()
	if pr.MaxWeight != 10 {
		t.Fatalf("max weight = %d, want 10", pr.MaxWeight)
	}
	if pr.MeanWeight != 4 {
		t.Fatalf("mean weight = %v, want 4", pr.MeanWeight)
	}
	if pr.WeightSkew != 2.5 {
		t.Fatalf("weight skew = %v, want 2.5", pr.WeightSkew)
	}
}

func TestProbeEmptyAndDisconnected(t *testing.T) {
	empty := New(0).Snapshot().Probe()
	if empty.EstDiameter != 0 || empty.WeightSkew != 1 {
		t.Fatalf("empty probe = %+v", empty)
	}
	// Two components: the probe measures the component of vertex 0.
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	pr := g.Snapshot().Probe()
	if pr.EstDiameter != 2 {
		t.Fatalf("disconnected probe diameter = %d, want 2", pr.EstDiameter)
	}
}
