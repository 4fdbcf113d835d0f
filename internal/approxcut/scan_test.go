package approxcut

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// onBlocks runs body on p ranks the way the library and the serving
// layer do — rank r reads block r of g.Edges in place — and returns rank
// 0's value.
func onBlocks[T any](t testing.TB, g *graph.Graph, p int, seed uint64, body func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) T) T {
	t.Helper()
	var out T
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		v := body(c, g.Edges[lo:hi], rng.New(seed, uint32(c.Rank()), 0))
		if c.Rank() == 0 {
			out = v
		}
	})
	if err != nil {
		t.Fatalf("p=%d seed=%d: %v", p, seed, err)
	}
	return out
}

// refScan is the test-only reference for scan: it materialises every
// trial's kept edges — the same per-rank streams, each level's coins
// flipped through one rng.Bits in trial-major, edge-minor order — and
// asks cc.Sequential whether the sampled subgraph is connected.
func refScan(g *graph.Graph, p int, seed uint64, trials, lo, hi int) int {
	for i := lo; i <= hi; i++ {
		subs := make([]*graph.Graph, trials)
		for t := range subs {
			subs[t] = graph.New(g.N)
		}
		for r := 0; r < p; r++ {
			blo, bhi := dist.BlockRange(len(g.Edges), p, r)
			coins := rng.NewBits(rng.New(seed, uint32(r), 0).Derive(uint32(i)))
			for _, sub := range subs {
				for _, e := range g.Edges[blo:bhi] {
					if coins.Below(keepThreshold(i, e.W)) {
						sub.AddEdge(e.U, e.V, 1)
					}
				}
			}
		}
		for _, sub := range subs {
			if cc.Sequential(sub).Count > 1 {
				return i
			}
		}
	}
	return 0
}

func scanInputs() map[string]*graph.Graph {
	split := graph.New(40) // two rings, no edge between them
	for v := int32(0); v < 20; v++ {
		split.AddEdge(v, (v+1)%20, 3)
		split.AddEdge(20+v, 20+(v+1)%20, 3)
	}
	return map[string]*graph.Graph{
		"ws-unit":      gen.WattsStrogatz(120, 6, 0.3, 4, gen.Config{}),
		"er-weighted":  gen.ErdosRenyiM(60, 400, 8, gen.Config{MaxWeight: 40}),
		"k24-heavy":    gen.Complete(24, 1<<12), // keepProb saturates at 1: no draw at the dense levels
		"disconnected": split,
	}
}

// TestScanMatchesMaterialisedReference: the forests-and-verdict data path
// answers exactly what labelling the materialised samples would, one
// level at a time (the early-stopping variant's call, including levels
// at which no trial disconnects) and over the whole range at once (the
// pipelined variant's) — with and without the base forests in front,
// which change no draw and answer inputDisconnected only for the
// disconnected input.
func TestScanMatchesMaterialisedReference(t *testing.T) {
	const trials, levels = 5, 14
	for name, g := range scanInputs() {
		for _, p := range []int{1, 2, 3, 4, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				cleared := 0
				for i := 1; i <= levels; i++ {
					got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
						return scan(c, g.N, local, st, trials, i, i, false)
					})
					if want := refScan(g, p, seed, trials, i, i); got != want {
						t.Fatalf("%s p=%d seed=%d level %d: scan says %d, reference %d", name, p, seed, i, got, want)
					}
					if got == 0 {
						cleared++
					}
				}
				want := refScan(g, p, seed, trials, 1, levels)
				for _, base := range []bool{false, true} {
					got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
						return scan(c, g.N, local, st, trials, 1, levels, base)
					})
					w := want
					if base && name == "disconnected" {
						w = inputDisconnected
					}
					if got != w {
						t.Fatalf("%s p=%d seed=%d levels 1..%d base=%v: scan says %d, want %d", name, p, seed, levels, base, got, w)
					}
				}
				switch name {
				case "disconnected":
					if want != 1 {
						t.Errorf("%s p=%d seed=%d: first disconnected level %d, want 1", name, p, seed, want)
					}
				case "k24-heavy":
					if cleared == 0 {
						t.Errorf("%s p=%d seed=%d: no level without a disconnection", name, p, seed)
					}
				}
			}
		}
	}
}

// TestParallelMatchesMaterialisedReference holds both variants' results
// to the reference scan: the value is 2^j for the first disconnected
// level j, early stopping examines j levels and the pipelined variant all
// of them.
func TestParallelMatchesMaterialisedReference(t *testing.T) {
	for name, g := range scanInputs() {
		if name == "disconnected" {
			continue // Parallel answers 0 before any scan
		}
		maxIter := int(math.Ceil(math.Log2(float64(g.TotalWeight())))) + 1
		for _, p := range []int{1, 2, 3, 4, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				const trials = 5
				j := refScan(g, p, seed, trials, 1, maxIter)
				for _, pipelined := range []bool{false, true} {
					got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) *Result {
						return Parallel(c, g.N, local, st, Options{Trials: trials, Pipelined: pipelined})
					})
					want := Result{Value: 1 << j, Iterations: j, TrialsPerIteration: trials, Disconnected: true}
					if j == 0 {
						want = Result{Value: 1 << maxIter, Iterations: maxIter, TrialsPerIteration: trials}
					}
					if pipelined {
						want.Iterations = maxIter
					}
					if *got != want {
						t.Errorf("%s p=%d seed=%d pipelined=%v: got %+v, want %+v", name, p, seed, pipelined, *got, want)
					}
				}
			}
		}
	}
}

// TestSharedInputNeverWritten runs both variants at every machine size
// at once — next to a cc.Parallel — on one shared edge array: every rank
// reads its block in place and draws into pooled union-finds, so under
// -race a single write to a block collides with the other machines'
// reads, and the copy comparison catches one that restores what it wrote.
func TestSharedInputNeverWritten(t *testing.T) {
	g := gen.WattsStrogatz(400, 8, 0.3, 6, gen.Config{MaxWeight: 6})
	before := slices.Clone(g.Edges)
	type run struct {
		p         int
		pipelined bool
	}
	var runs []run
	for _, p := range []int{1, 2, 4, 8} {
		runs = append(runs, run{p, false}, run{p, true})
	}
	alone := make([]Result, len(runs))
	for i, r := range runs {
		alone[i] = *onBlocks(t, g, r.p, 11, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) *Result {
			return Parallel(c, g.N, local, st, Options{Pipelined: r.pipelined})
		})
	}
	together := make([]*Result, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r run) {
			defer wg.Done()
			_, err := bsp.Run(r.p, func(c *bsp.Comm) {
				lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
				st := rng.New(11, uint32(c.Rank()), 0)
				cc.Parallel(c, g.N, g.Edges[lo:hi], st.Derive(7), cc.Options{})
				res := Parallel(c, g.N, g.Edges[lo:hi], st, Options{Pipelined: r.pipelined})
				if c.Rank() == 0 {
					together[i] = res
				}
			})
			if err != nil {
				t.Errorf("%+v: %v", r, err)
			}
		}(i, r)
	}
	wg.Wait()
	if !slices.Equal(g.Edges, before) {
		t.Fatal("approxcut wrote to its input edge array")
	}
	for i, r := range runs {
		if together[i] != nil && *together[i] != alone[i] {
			t.Errorf("%+v: %+v beside other machines, %+v alone", r, *together[i], alone[i])
		}
	}
}

// TestCancelMidLevelKeepsPartial cancels the machine as soon as the
// first level has cleared, i.e. inside the second level's draws: the
// scan's per-trial abort poll must end the level within a trial or two
// instead of drawing all of it, and the checkpoint must still hold what
// had cleared.
func TestCancelMidLevelKeepsPartial(t *testing.T) {
	// Weight 2^12 on every edge puts the first disconnection near level
	// 15; 1024 trials make a level long enough (~0.1 s) to time against.
	g := gen.WattsStrogatz(2000, 8, 0.3, 3, gen.Config{})
	for i := range g.Edges {
		g.Edges[i].W = 1 << 12
	}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			m, err := bsp.NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			cp := NewCheckpoint()
			done := make(chan error, 1)
			start := time.Now()
			go func() {
				_, err := m.Run(func(c *bsp.Comm) {
					lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
					Parallel(c, g.N, g.Edges[lo:hi], rng.New(5, uint32(c.Rank()), 0), Options{Trials: 1024, Checkpoint: cp})
				})
				done <- err
			}()
			for {
				if _, _, _, ok := cp.Partial(); ok {
					break
				}
				select {
				case err := <-done:
					t.Fatalf("run ended before a level cleared: %v", err)
				case <-time.After(50 * time.Microsecond):
				}
			}
			level := time.Since(start)
			cancelled := time.Now()
			m.Cancel(errors.New("deadline"))
			err = <-done
			unwind := time.Since(cancelled)
			if !errors.Is(err, bsp.ErrCancelled) {
				t.Fatalf("run error %v, want ErrCancelled", err)
			}
			iters, trials, planned, ok := cp.Partial()
			if !ok || iters < 1 || iters >= planned || trials != 1024 {
				t.Errorf("partial estimate after cancel: iterations=%d trials=%d planned=%d ok=%v", iters, trials, planned, ok)
			}
			if unwind > level/2 {
				t.Errorf("cancel took %v to unwind; one whole level takes about %v", unwind, level)
			}
		})
	}
}
