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

// refScan is the test-only reference for scan: it materialises the
// sampled subgraph of every pair from..to-1 of the level-major (level,
// trial) sequence — the same per-rank streams, each level's coins flipped
// through one rng.Bits in trial-major, edge-minor order — and returns the
// index of the first one cc.Sequential finds disconnected,
// noDisconnection if none is.
func refScan(g *graph.Graph, p int, seed uint64, trials, from, to int) int {
	for i := 1 + from/trials; i <= 1+(to-1)/trials; i++ {
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
		for t, sub := range subs {
			if k := (i-1)*trials + t; k >= from && k < to && cc.Sequential(sub).Count > 1 {
				return k
			}
		}
	}
	return noDisconnection
}

// scanWindows scans the windows cuts[0]..cuts[1], cuts[1]..cuts[2], …
// the way Parallel does — one coin reader carried across them, the base
// forests in the first — and returns the first verdict other than
// noDisconnection.
func scanWindows(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, trials int, cuts []int, base bool) int {
	var coins rng.Bits
	for w := 0; w+1 < len(cuts); w++ {
		if k := scan(c, n, local, st, trials, cuts[w], cuts[w+1], base && w == 0, &coins); k != noDisconnection {
			return k
		}
	}
	return noDisconnection
}

// earlyCuts are the early-stopping variant's window bounds over levels
// levels: the probe [0, 1), then the rest of each level with the next
// level's probe.
func earlyCuts(trials, levels int) []int {
	cuts := []int{0}
	for to := 1; to < levels*trials; to += trials {
		cuts = append(cuts, to)
	}
	return append(cuts, levels*trials)
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
// answers exactly what labelling the materialised samples would — one
// level per window (including levels at which no trial disconnects), over
// the whole range at once (the pipelined variant's window), and over
// windows that split levels (the early-stopping variant's probe-shifted
// ones, and a window [T-2, T+3) straddling levels 1 and 2): carrying the
// coin reader across windows changes no draw, so every windowing finds
// the same first disconnected pair. With the base forests in front no
// draw changes either, and only the disconnected input answers
// inputDisconnected.
func TestScanMatchesMaterialisedReference(t *testing.T) {
	const trials, levels = 5, 14
	const total = levels * trials
	splits := map[string][]int{
		"early":    earlyCuts(trials, levels),
		"straddle": {0, trials - 2, trials + 3, total},
		"ragged":   {0, 3, 4, 2*trials + 1, 3 * trials, 3*trials + 1, total},
	}
	for name, g := range scanInputs() {
		for _, p := range []int{1, 2, 3, 4, 8} {
			for seed := uint64(1); seed <= 6; seed++ {
				cleared := 0
				for i := 1; i <= levels; i++ {
					from, to := (i-1)*trials, i*trials
					got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
						return scan(c, g.N, local, st, trials, from, to, false, new(rng.Bits))
					})
					if want := refScan(g, p, seed, trials, from, to); got != want {
						t.Fatalf("%s p=%d seed=%d level %d: scan says %d, reference %d", name, p, seed, i, got, want)
					}
					if got == noDisconnection {
						cleared++
					}
				}
				want := refScan(g, p, seed, trials, 0, total)
				for _, base := range []bool{false, true} {
					w := want
					if base && name == "disconnected" {
						w = inputDisconnected
					}
					got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
						return scan(c, g.N, local, st, trials, 0, total, base, new(rng.Bits))
					})
					if got != w {
						t.Fatalf("%s p=%d seed=%d one window base=%v: scan says %d, want %d", name, p, seed, base, got, w)
					}
					for split, cuts := range splits {
						got := onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
							return scanWindows(c, g.N, local, st, trials, cuts, base)
						})
						if got != w {
							t.Fatalf("%s p=%d seed=%d %s windows %v base=%v: scan says %d, want %d", name, p, seed, split, cuts, base, got, w)
						}
					}
				}
				switch name {
				case "disconnected":
					if want != 0 {
						t.Errorf("%s p=%d seed=%d: first disconnected pair %d, want 0", name, p, seed, want)
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

// FuzzScanWindows cuts the (level, trial) sequence at random points:
// however the windows fall, the first disconnected pair is the one a
// single window over every pair finds.
func FuzzScanWindows(f *testing.F) {
	const trials, levels = 5, 8
	const total = levels * trials
	inputs := scanInputs()
	var names []string
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	f.Add(uint64(1), uint8(1), false, []byte{0, 4, 5})
	f.Add(uint64(2), uint8(3), true, []byte{3, 9, 1, 1, 7})
	f.Add(uint64(7), uint8(2), true, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, p uint8, base bool, steps []byte) {
		name := names[seed%uint64(len(names))]
		g := inputs[name]
		procs := 1 + int(p%4)
		cuts := []int{0}
		for _, b := range steps {
			next := cuts[len(cuts)-1] + 1 + int(b)%(2*trials)
			if next >= total {
				break
			}
			cuts = append(cuts, next)
		}
		cuts = append(cuts, total)
		want := onBlocks(t, g, procs, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
			return scan(c, g.N, local, st, trials, 0, total, base, new(rng.Bits))
		})
		got := onBlocks(t, g, procs, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) int {
			return scanWindows(c, g.N, local, st, trials, cuts, base)
		})
		if got != want {
			t.Fatalf("%s p=%d seed=%d windows %v base=%v: %d, one window %d", name, procs, seed, cuts, base, got, want)
		}
	})
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
				j := 0
				if k := refScan(g, p, seed, trials, 0, maxIter*trials); k != noDisconnection {
					j = 1 + k/trials
				}
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

// TestProbeDisconnectedColdRunScansOneTrial: on unit weights level 1
// keeps each edge with probability ½, so a Watts–Strogatz graph's first
// trial already isolates a vertex. A cold early-stopping run then draws
// that one trial and nothing else: every non-root rank's operations are
// its slice once for the base forest and once for the probe, and the run
// takes the weight reduction's supersteps and one scan round.
func TestProbeDisconnectedColdRunScansOneTrial(t *testing.T) {
	g := gen.WattsStrogatz(2048, 8, 0.3, 1, gen.Config{})
	for _, p := range []int{2, 4} {
		if k := refScan(g, p, 1, 11, 0, 1); k != 0 {
			t.Fatalf("p=%d: level 1's probe does not disconnect (%d): pick another graph", p, k)
		}
		weight, err := bsp.Run(p, func(c *bsp.Comm) {
			lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
			dist.TotalWeight(c, g.Edges[lo:hi])
		})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
			r := Parallel(c, g.N, g.Edges[lo:hi], rng.New(1, uint32(c.Rank()), 0), Options{})
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := (Result{Value: 2, Iterations: 1, TrialsPerIteration: 11, Disconnected: true}); *res != want {
			t.Errorf("p=%d: got %+v, want %+v", p, *res, want)
		}
		if st.Supersteps != weight.Supersteps+2 {
			t.Errorf("p=%d: %d supersteps, want the weight reduction's %d + one scan round's 2", p, st.Supersteps, weight.Supersteps)
		}
		for _, ws := range st.Workers {
			if ws.Rank == 0 {
				continue // the root also merges every section
			}
			lo, hi := dist.BlockRange(len(g.Edges), p, ws.Rank)
			if want := uint64(2 * (hi - lo)); ws.Ops != want {
				t.Errorf("p=%d rank %d: %d ops, want base + one slice = %d", p, ws.Rank, ws.Ops, want)
			}
		}
	}
}

// TestCheckpointCountsWholeLevels: the early-stopping run notes ⌊to/T⌋
// cleared levels after each window [from, to) without a disconnection,
// so when it stops at pair k it holds the levels that window's start had
// cleared — ⌊(k-1)/T⌋ for k ≥ 1, none when level 1's probe disconnects.
func TestCheckpointCountsWholeLevels(t *testing.T) {
	for name, g := range scanInputs() {
		if name == "disconnected" {
			continue
		}
		maxIter := int(math.Ceil(math.Log2(float64(g.TotalWeight())))) + 1
		for _, p := range []int{1, 3} {
			for seed := uint64(1); seed <= 6; seed++ {
				const trials = 5
				k := refScan(g, p, seed, trials, 0, maxIter*trials)
				want := maxIter
				switch {
				case k == 0:
					want = 0
				case k != noDisconnection:
					want = (k - 1) / trials
				}
				cp := NewCheckpoint()
				onBlocks(t, g, p, seed, func(c *bsp.Comm, local []graph.Edge, st *rng.Stream) *Result {
					return Parallel(c, g.N, local, st, Options{Trials: trials, Checkpoint: cp})
				})
				iters, tr, planned, ok := cp.Partial()
				if iters != want || ok != (want > 0) || (ok && (tr != trials || planned != maxIter)) {
					t.Errorf("%s p=%d seed=%d: stop at pair %d left iterations=%d trials=%d planned=%d ok=%v, want %d levels of %d",
						name, p, seed, k, iters, tr, planned, ok, want, maxIter)
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
// first level has cleared — after the window holding the rest of level 1
// and level 2's probe — i.e. inside the next window's draws: the scan's
// per-trial abort poll must end the window within a trial or two instead
// of drawing all of it, and the checkpoint must still hold what had
// cleared, the degraded answer a cancelled query returns.
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
