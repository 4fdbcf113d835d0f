package camc

import (
	"bytes"
	"testing"
)

func ringGraph(n int, w uint64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(int32(i), int32((i+1)%n), w)
	}
	return g
}

func TestQuickstartMinCut(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 0, 2)
	res, err := MinCut(g, Options{Processors: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 3 {
		t.Errorf("min cut = %d, want 3", res.Value)
	}
	if CutValue(g, res.Side) != res.Value {
		t.Error("side does not certify the value")
	}
}

func TestMinCutDefaults(t *testing.T) {
	g := ringGraph(24, 2)
	res, err := MinCut(g, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Errorf("ring cut = %d, want 4", res.Value)
	}
	if res.Stats.P < 1 || res.Stats.Supersteps < 1 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestApproxMinCut(t *testing.T) {
	g := ringGraph(64, 1)
	res, err := ApproxMinCut(g, Options{Processors: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 1 || res.Value > 16 {
		t.Errorf("approx estimate %d far from true cut 2", res.Value)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph(10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(5, 6, 1)
	res, err := ConnectedComponents(g, Options{Processors: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 7 {
		t.Errorf("components = %d, want 7", res.Count)
	}
	if res.Labels[0] != res.Labels[2] || res.Labels[0] == res.Labels[5] {
		t.Errorf("labels wrong: %v", res.Labels)
	}
}

func TestBaselinesAgree(t *testing.T) {
	g := ErdosRenyi(40, 220, 9, GenConfig{MaxWeight: 4})
	if !g.IsConnected() {
		t.Skip("rare: disconnected sample")
	}
	swVal, swSide := StoerWagner(g)
	if CutValue(g, swSide) != swVal {
		t.Error("SW side inconsistent")
	}
	ksVal, ksSide := KargerStein(g, 3, 0.95)
	if CutValue(g, ksSide) != ksVal {
		t.Error("KS side inconsistent")
	}
	if swVal != ksVal {
		t.Errorf("SW %d vs KS %d", swVal, ksVal)
	}
	res, err := MinCut(g, Options{Processors: 4, Seed: 11, SuccessProb: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != swVal {
		t.Errorf("parallel %d vs SW %d", res.Value, swVal)
	}
}

func TestSequentialCCBaseline(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	labels, count := SequentialCC(g)
	if count != 4 || labels[0] != labels[1] || labels[0] == labels[2] {
		t.Errorf("labels %v count %d", labels, count)
	}
}

func TestGraphIO(t *testing.T) {
	g := ringGraph(5, 3)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 5 || back.M() != 5 {
		t.Errorf("round trip: n=%d m=%d", back.N, back.M())
	}
}

func TestGenerators(t *testing.T) {
	if g := ErdosRenyi(50, 100, 1, GenConfig{}); g.M() != 100 {
		t.Error("ER generator")
	}
	if g := WattsStrogatz(50, 4, 0.3, 1, GenConfig{}); g.M() != 100 {
		t.Error("WS generator")
	}
	if g := BarabasiAlbert(50, 3, 1, GenConfig{}); !g.IsConnected() {
		t.Error("BA generator")
	}
	if g := RMAT(6, 100, 1, GenConfig{}); g.N != 64 {
		t.Error("RMAT generator")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := ErdosRenyi(60, 300, 4, GenConfig{MaxWeight: 5})
	a, err := MinCut(g, Options{Processors: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinCut(g, Options{Processors: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Errorf("same seed, different cuts: %d vs %d", a.Value, b.Value)
	}
}
