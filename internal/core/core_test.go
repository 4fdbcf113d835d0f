package core

import (
	"context"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.processors() < 1 {
		t.Error("default processors < 1")
	}
	if par := o.params(); par.Seed != 1 || par.SuccessProb != 0.9 || par.Epsilon != 0.5 {
		t.Errorf("defaults = %+v", par)
	}
	o = Options{Processors: 3, Seed: 9, SuccessProb: 0.75}
	if par := o.params(); o.processors() != 3 || par.Seed != 9 || par.SuccessProb != 0.75 {
		t.Error("explicit options not honored")
	}
	o = Options{SuccessProb: 1.5}
	if o.params().SuccessProb != 0.9 {
		t.Error("out-of-range success prob not defaulted")
	}
}

func TestMinCutEndToEnd(t *testing.T) {
	g := gen.TwoCliques(10, 2, 5, 1)
	res, err := MinCut(g, Options{Processors: 3, Seed: 4, SuccessProb: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Errorf("cut = %d, want 2", res.Value)
	}
	if g.CutValue(res.Side) != res.Value {
		t.Error("certificate mismatch")
	}
	if res.Stats.P != 3 {
		t.Errorf("stats.P = %d", res.Stats.P)
	}
	if res.Stats.Time <= 0 {
		t.Error("no time recorded")
	}
	if res.Stats.CommFraction < 0 || res.Stats.CommFraction > 1 {
		t.Errorf("comm fraction = %v", res.Stats.CommFraction)
	}
}

func TestApproxMinCutEndToEnd(t *testing.T) {
	g := gen.Cycle(64, 1)
	res, err := ApproxMinCut(g, Options{Processors: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 1 || res.Value > 16 {
		t.Errorf("estimate = %d for true cut 2", res.Value)
	}
	// Pipelined variant.
	res2, err := ApproxMinCut(g, Options{Processors: 2, Seed: 6, Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Value < 1 || res2.Value > 16 {
		t.Errorf("pipelined estimate = %d", res2.Value)
	}
}

func TestConnectedComponentsEndToEnd(t *testing.T) {
	g := graph.New(9)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(4, 5, 1)
	res, err := ConnectedComponents(g, Options{Processors: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 6 {
		t.Errorf("count = %d, want 6", res.Count)
	}
	if len(res.Labels) != 9 {
		t.Errorf("labels len %d", len(res.Labels))
	}
}

func TestValidateRejects(t *testing.T) {
	if _, err := MinCut(nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	bad := graph.New(1)
	bad.Edges = []graph.Edge{{U: 0, V: 0, W: 1}}
	if _, err := ConnectedComponents(bad, Options{}); err == nil {
		t.Error("loop accepted")
	}
}

// TestBlockValidationMatchesSerial: the per-block concurrent check must
// report byte for byte what g.Validate() reports — a violation of each
// kind planted in every block at several machine sizes, and of two
// violations in different blocks the one with the lower edge index.
func TestBlockValidationMatchesSerial(t *testing.T) {
	base := gen.Cycle(50, 1)
	corrupt := map[string]func(e *graph.Edge){
		"range": func(e *graph.Edge) { e.V = 50 },
		"loop":  func(e *graph.Edge) { e.V = e.U },
		"zero":  func(e *graph.Edge) { e.W = 0 },
	}
	for _, p := range []int{1, 2, 3, 8} {
		for r := 0; r < p; r++ {
			lo, hi := dist.BlockRange(len(base.Edges), p, r)
			for kind, hurt := range corrupt {
				g := &graph.Graph{N: base.N, Edges: append([]graph.Edge(nil), base.Edges...)}
				hurt(&g.Edges[(lo+hi)/2])
				want := g.Validate()
				if _, err := ConnectedComponents(g, Options{Processors: p}); want == nil || err == nil || err.Error() != want.Error() {
					t.Errorf("p=%d block %d %s: got %v, want %v", p, r, kind, err, want)
				}
				if r+1 < p { // a second, different violation in the last block
					corrupt["zero"](&g.Edges[len(g.Edges)-1])
					if _, err := MinCut(g, Options{Processors: p}); err == nil || err.Error() != want.Error() {
						t.Errorf("p=%d blocks %d and %d: got %v, want the lower index's %v", p, r, p-1, err, want)
					}
				}
			}
		}
	}
	neg := &graph.Graph{N: -1}
	if _, err := ConnectedComponents(neg, Options{Processors: 3}); err == nil || err.Error() != neg.Validate().Error() {
		t.Errorf("negative n: got %v, want %v", err, neg.Validate())
	}
}

// TestMaxTrialsRespected: the cap bounds the trials a run draws. A
// cycle's min-degree cut is minimum, so the certificate proves it and the
// run draws none; a dumbbell's bridge is lighter than every singleton, so
// its certificate fails and the trials run, capped at 5.
func TestMaxTrialsRespected(t *testing.T) {
	for _, c := range []struct {
		g     *graph.Graph
		want  int
		value uint64
	}{
		{gen.Cycle(40, 1), 0, 2},
		{gen.Dumbbell(20, 2, 1), 5, 1},
	} {
		res, err := MinCut(c.g, Options{Processors: 2, Seed: 3, MaxTrials: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != c.want || res.Value != c.value {
			t.Errorf("n=%d: %d trials, value %d; want %d trials, value %d", c.g.N, res.Trials, res.Value, c.want, c.value)
		}
	}
}

func TestEpsilonOption(t *testing.T) {
	// Dense enough (m = 44850 ≫ s) that both settings truly sample: each
	// rank draws ⌈1.5·s/2⌉ of its 22425 edges, 459 at ε=0.25 and 3897 at
	// ε=1.0. Both extremes must agree on the answer; the knob only shifts
	// the iteration/work trade-off — and it must actually reach the
	// sampler, which the draw count in Ops shows. (Words moved no longer
	// do: a rank ships a spanning forest of its sample, at most n-1 edges
	// whatever s is.)
	g := gen.Complete(300, 1)
	small, err := ConnectedComponents(g, Options{Processors: 2, Seed: 5, Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	big, err := ConnectedComponents(g, Options{Processors: 2, Seed: 5, Epsilon: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if small.Count != big.Count {
		t.Errorf("epsilon changed the answer: %d vs %d", small.Count, big.Count)
	}
	if small.Stats.Ops == big.Stats.Ops {
		t.Errorf("epsilon had no effect on the sample: %d ops at ε=0.25 and at ε=1.0", small.Stats.Ops)
	}
	// The zero value is the documented default, not a third setting.
	def, err := ConnectedComponents(g, Options{Processors: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	half, err := ConnectedComponents(g, Options{Processors: 2, Seed: 5, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.CommVolume != half.Stats.CommVolume || def.Stats.Supersteps != half.Stats.Supersteps {
		t.Errorf("Epsilon 0 is not the 0.5 default: %d words/%d supersteps vs %d/%d",
			def.Stats.CommVolume, def.Stats.Supersteps, half.Stats.CommVolume, half.Stats.Supersteps)
	}
}

func TestApproxTrialsOption(t *testing.T) {
	// Min cut 16. On unit weights level 1's first trial already cuts a
	// cycle and no other trial is drawn; at weight 8 it does not, so the
	// rest of the level's trial forests ship and the trial count shows on
	// the ledger. 0 means the ⌈log₂n⌉ = 6 default.
	g := gen.Cycle(64, 8)
	res, err := ApproxMinCut(g, Options{Processors: 2, Seed: 4, ApproxTrials: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 2 || res.Value > 128 {
		t.Errorf("estimate %d", res.Value)
	}
	def, err := ApproxMinCut(g, Options{Processors: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	six, err := ApproxMinCut(g, Options{Processors: 2, Seed: 4, ApproxTrials: 6})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.CommVolume != six.Stats.CommVolume {
		t.Errorf("ApproxTrials 0 is not the log₂n default: %d words vs %d", def.Stats.CommVolume, six.Stats.CommVolume)
	}
	if res.Stats.CommVolume <= six.Stats.CommVolume {
		t.Errorf("ApproxTrials had no effect: 12 trials moved %d words, 6 moved %d",
			res.Stats.CommVolume, six.Stats.CommVolume)
	}
}

func TestAllMinCutsCore(t *testing.T) {
	g := gen.Star(7, 2)
	res, err := AllMinCuts(g, Options{Processors: 3, Seed: 8, SuccessProb: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 || len(res.Sides) != 6 {
		t.Errorf("value %d with %d sides, want 2 with 6", res.Value, len(res.Sides))
	}
	if res.Stats.P != 3 {
		t.Errorf("stats.P = %d", res.Stats.P)
	}
}

// A machine's Comms live as long as the machine, so rank 0's *Comm names
// the machine a run was given. A run that fails may have left mailboxes
// mid-superstep: its machine must never be handed to a later run.
func TestFailedRunDropsItsMachine(t *testing.T) {
	const p = 7 // a size no other test in this package pools
	g := gen.Cycle(20, 1)
	rank0 := func(into **bsp.Comm, fail bool) func(*bsp.Comm, []graph.Edge) {
		return func(c *bsp.Comm, _ []graph.Edge) {
			if c.Rank() == 0 {
				*into = c
			}
			c.Sync()
			if fail && c.Rank() == 1 {
				panic("rank 1 failed")
			}
			c.Sync()
		}
	}
	sh := planner.Shape{P: p}
	var failed *bsp.Comm
	if _, err := planner.RunBlocks(context.Background(), sh, g.Edges, rank0(&failed, true)); err == nil {
		t.Fatal("a panicking rank did not fail the run")
	}
	for i := 0; i < 20; i++ {
		var c *bsp.Comm
		if _, err := planner.RunBlocks(context.Background(), sh, g.Edges, rank0(&c, false)); err != nil {
			t.Fatal(err)
		}
		if c == failed {
			t.Fatalf("run %d was given the failed run's machine", i)
		}
	}
}
