package camc

import (
	"slices"
	"sync"
	"testing"
)

// Larger cross-checks; skipped with -short.

func TestStressCCLargeSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := BarabasiAlbert(300_000, 8, 5, GenConfig{})
	labels, want := SequentialCC(g)
	res, err := ConnectedComponents(g, Options{Processors: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("count %d vs %d", res.Count, want)
	}
	// Spot-check label partition agreement on a sample of pairs.
	for i := 0; i+1000 < g.N; i += 7919 {
		a, b := i, i+1000
		if (labels[a] == labels[b]) != (res.Labels[a] == res.Labels[b]) {
			t.Fatalf("partition disagreement at (%d,%d)", a, b)
		}
	}
}

func TestStressMinCutMediumGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := WattsStrogatz(1024, 16, 0.3, 11, GenConfig{MaxWeight: 3})
	res, err := MinCut(g, Options{Processors: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Side[0] && res.Value == 0 {
		t.Fatal("implausible zero cut on connected WS graph")
	}
	if CutValue(g, res.Side) != res.Value {
		t.Fatal("certificate mismatch")
	}
	// The approximation must bracket the exact value within its factor.
	app, err := ApproxMinCut(g, Options{Processors: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(app.Value) / float64(res.Value)
	if ratio < 1.0/16 || ratio > 16 {
		t.Errorf("approx %d vs exact %d: ratio %.2f outside generous bracket", app.Value, res.Value, ratio)
	}
	// Exact value can never exceed the min weighted degree.
	minDeg := ^uint64(0)
	deg := g.Degrees()
	for _, d := range deg {
		if d < minDeg {
			minDeg = d
		}
	}
	if res.Value > minDeg {
		t.Errorf("cut %d exceeds min degree %d", res.Value, minDeg)
	}
}

func TestStressDeterministicAcrossP(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// The cut VALUE must agree across processor counts whp; sides may
	// differ between ties.
	g := ErdosRenyi(256, 2048, 31, GenConfig{MaxWeight: 4})
	want, _ := StoerWagner(g)
	for _, p := range []int{1, 3, 5, 8} {
		res, err := MinCut(g, Options{Processors: p, Seed: 17, SuccessProb: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Errorf("p=%d: %d, want %d", p, res.Value, want)
		}
	}
}

// The library facade and the serving layer draw machines from one pool
// (bsp.AcquireMachine), and every CC rank reads its block of the caller's
// edge array in place. Many callers at once, on shared graphs, must each
// get the answer a lone caller gets: a pooled machine carries nothing
// from its last run, and nobody writes to the shared input. Runs under
// -race on the default gate, so it is not a -short skip.
func TestConcurrentCallersSharePooledMachines(t *testing.T) {
	ccG := BarabasiAlbert(5000, 8, 5, GenConfig{})
	_, wantCount := SequentialCC(ccG)
	mcG := WattsStrogatz(64, 6, 0.3, 11, GenConfig{MaxWeight: 3})
	mcOpts := func(p int) Options { return Options{Processors: p, Seed: 21, MaxTrials: 8} }
	ps := []int{1, 2, 4}
	alone := map[int]*MinCutResult{}
	for _, p := range ps {
		res, err := MinCut(mcG, mcOpts(p))
		if err != nil {
			t.Fatal(err)
		}
		alone[p] = res
	}
	ccBefore, mcBefore := slices.Clone(ccG.Edges), slices.Clone(mcG.Edges)

	const callers, rounds = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := ps[(w+i)%len(ps)]
				if (w+i)%2 == 0 {
					res, err := ConnectedComponents(ccG, Options{Processors: p, Seed: uint64(w*rounds + i + 1)})
					if err != nil {
						t.Errorf("cc p=%d: %v", p, err)
					} else if res.Count != wantCount {
						t.Errorf("cc p=%d: %d components, want %d", p, res.Count, wantCount)
					}
					continue
				}
				res, err := MinCut(mcG, mcOpts(p))
				if err != nil {
					t.Errorf("mincut p=%d: %v", p, err)
				} else if want := alone[p]; res.Value != want.Value || !slices.Equal(res.Side, want.Side) {
					t.Errorf("mincut p=%d: value %d among %d callers, %d alone", p, res.Value, callers, want.Value)
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(ccG.Edges, ccBefore) || !slices.Equal(mcG.Edges, mcBefore) {
		t.Error("a run wrote to its caller's edge array")
	}
}
