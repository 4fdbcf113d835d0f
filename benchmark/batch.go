package main

import (
	"fmt"
	"time"

	camc "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// solveRec is one timed library call.
type solveRec struct {
	id     int
	p      int
	lat    time.Duration
	stats  camc.RunStats
	trials int
}

// solveOut is the answer of one library call in checkable form.
type solveOut struct {
	value  uint64 // component count, or cut value
	side   []bool
	trials int
	stats  camc.RunStats
}

// batch is a library-path workload: one big graph, solved over and
// over at p=2 with a p=1 solve after every batchCycle-1 of them, each
// with its own seed and each checked against the sequential reference.
type batch struct {
	name      string
	o         options
	tr        *tracer
	make      func() *graph.Graph
	solve     func(g *graph.Graph, opts camc.Options) (solveOut, error)
	check     func(t *truth, out solveOut, full bool) error
	countOpts camc.Options // the count-only op
	probes    func(b *batch, m *metrics) error

	g      *graph.Graph
	truth  *truth
	nextID int
}

// batchCycle: four p=2 solves, then one p=1 solve.
var batchCycle = []int{2, 2, 2, 2, 1}

// Input sizes, fixed here and never derived from the machine. Chosen so
// that one p=2 solve takes ≈50 ms (cc) and ≈330 ms (mincut) on the
// 2-core box: a 20 s phase holds ≈270 and ≈40 of them.
const (
	ccBatchN, ccBatchK = 100_000, 16 // Barabási–Albert, m ≈ 1.6 M: a 25.6 MB edge array against 4 MB of L2
	quickCCN           = 2_000

	minCutBatchN, minCutBatchK = 256, 12 // Watts–Strogatz, β = 0.3, unit weights: 686 trials at success 0.9
	minCutBeta, minCutSuccess  = 0.3, 0.9
	quickMinCutN               = 48

	// The count-only ops: trials < p, so processor groups run the
	// distributed recursive contraction instead of whole trials.
	countP, smallCountP, countMaxTrials = 16, 4, 4

	graphSeedSalt = 0x6a09e667f3bcc908 // graph seeds are split from op seeds
)

func newCCBatch(o options, tr *tracer) *batch {
	return &batch{
		name: "cc_batch", o: o, tr: tr,
		make: func() *graph.Graph {
			return barabasiAlbert(o.size(ccBatchN, quickCCN), ccBatchK, o.seed^graphSeedSalt)
		},
		solve: func(g *graph.Graph, opts camc.Options) (solveOut, error) {
			r, err := camc.ConnectedComponents(g, opts)
			if err != nil {
				return solveOut{}, err
			}
			return solveOut{value: uint64(r.Count), stats: r.Stats}, nil
		},
		check:     func(t *truth, out solveOut, _ bool) error { return t.checkCC(int(out.value)) },
		countOpts: camc.Options{Processors: countP},
		probes:    ccProbes,
	}
}

func newMinCutBatch(o options, tr *tracer) *batch {
	return &batch{
		name: "mincut_batch", o: o, tr: tr,
		make: func() *graph.Graph {
			return gen.WattsStrogatz(o.size(minCutBatchN, quickMinCutN), minCutBatchK, minCutBeta, o.seed^graphSeedSalt, gen.Config{})
		},
		solve: func(g *graph.Graph, opts camc.Options) (solveOut, error) {
			opts.SuccessProb = minCutSuccess
			r, err := camc.MinCut(g, opts)
			if err != nil {
				return solveOut{}, err
			}
			return solveOut{value: r.Value, side: r.Side, trials: r.Trials, stats: r.Stats}, nil
		},
		// A trial-capped solve may miss the minimum; a full one may not.
		check:     func(t *truth, out solveOut, full bool) error { return t.checkMinCut(out.value, out.side, full) },
		countOpts: camc.Options{Processors: countP, MaxTrials: countMaxTrials},
		probes:    minCutProbes,
	}
}

func (b *batch) setup() error {
	b.g = b.make()
	var err error
	if b.truth, err = newTruth(b.g, false); err != nil {
		return err
	}
	for _, p := range []int{2, 1} { // warm-up: heap growth, pooled machines
		if _, err := b.solve(b.g, camc.Options{Processors: p, Seed: 1}); err != nil {
			return err
		}
	}
	return nil
}

func (b *batch) fingerprint() string {
	return scheduleFingerprint(b.name, b.o.seed, []*graph.Graph{b.g}, nil)
}

func (b *batch) close() {}

// run repeats whole cycles until d has passed, so every phase holds the
// same 4:1 mix of p=2 and p=1 solves.
func (b *batch) run(d time.Duration) *phase {
	ph := &phase{}
	mem := markMem()
	start := time.Now()
	for time.Since(start) < d {
		cycle := time.Now()
		for _, p := range batchCycle {
			id := b.nextID
			b.nextID++
			t0 := time.Now()
			out, err := b.solve(b.g, camc.Options{Processors: p, Seed: uint64(id + 1)})
			t1 := time.Now()
			if b.tr != nil && b.tr.on.Load() {
				b.tr.add(span{Op: id, Name: spanSolve, Start: b.tr.since(t0), End: b.tr.since(t1)})
			}
			if err == nil {
				err = b.check(b.truth, out, true)
			}
			if err != nil {
				ph.wrong = append(ph.wrong, fmt.Sprintf("op %d (p=%d): %v", id, p, err))
			}
			ph.attempted++
			if p == 2 {
				ph.lat = append(ph.lat, ms(t1.Sub(t0)))
			}
			ph.solves = append(ph.solves, solveRec{id: id, p: p, lat: t1.Sub(t0), stats: out.stats, trials: out.trials})
		}
		ph.rates = append(ph.rates, float64(len(batchCycle))/time.Since(cycle).Seconds())
	}
	ph.wall = time.Since(start)
	ph.mem = mem.delta()
	return ph
}

// headline: the p=1 time to solution, and the exact counts of the
// count-only op (p=16 on 2 cores says nothing about time, but supersteps
// and words repeat exactly).
func (b *batch) headline(untraced *phase, m *metrics) error {
	var p1 []float64
	for _, r := range untraced.solves {
		if r.p == 1 {
			p1 = append(p1, ms(r.lat))
		}
	}
	m.setMedian("latency_p1_p50_ms", p1)
	if len(p1) > 0 {
		m.set("core.speedup_p2", median(p1)/median(untraced.lat), len(p1))
	}
	opts := b.countOpts
	opts.Seed = b.o.seed
	out, err := b.solve(b.g, opts)
	if err == nil {
		err = b.check(b.truth, out, opts.MaxTrials == 0)
	}
	if err != nil {
		return fmt.Errorf("count-only solve at p=%d: %w", countP, err)
	}
	m.set("supersteps_p16", float64(out.stats.Supersteps), 1)
	m.set("comm_words_p16", float64(out.stats.CommVolume), 1)
	return nil
}

// layers reads the BSP ledger the library already returns with every
// result, then runs the layer probes.
func (b *batch) layers(traced *phase, m *metrics) error {
	var comm, commShare, ops, rate []float64
	var steps, words, commTotal, timeTotal float64
	for _, r := range traced.solves {
		if r.p != 2 {
			continue
		}
		comm = append(comm, ms(r.stats.CommTime))
		commShare = append(commShare, r.stats.CommFraction)
		ops = append(ops, float64(r.stats.Ops))
		steps += float64(r.stats.Supersteps)
		words += float64(r.stats.CommVolume)
		commTotal += r.stats.CommTime.Seconds()
		timeTotal += r.stats.Time.Seconds()
		if r.trials > 0 {
			rate = append(rate, float64(r.trials)/r.lat.Seconds())
		}
	}
	if n := len(comm); n > 0 {
		m.set("bsp.comm_share", commTotal/timeTotal, n)
		m.setMedian("bsp.comm_ms_p50", comm)
		m.set("bsp.supersteps_per_op", steps/float64(n), n)
		m.set("bsp.words_per_op", words/float64(n), n)
		m.setMedian("core.comm_share_p2", commShare)
		m.setMedian("core.ops_max_p2", ops)
		m.setMedian("mincut.trials_s_p2", rate)
	}
	return b.probes(b, m)
}
