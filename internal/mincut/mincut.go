package mincut

import (
	"math"
	"slices"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// trialLane is the counter sub-stream tag of per-trial RNG streams:
// trial i draws from st.At(i, trialLane), a stream keyed by (seed, trial
// index) alone. Distinct from the rank-keyed base streams (sub 0) and
// Derive's 0x5851f42d-xored space, so trial randomness never collides
// with — and never depends on — any rank's stream.
const trialLane = 0x7472696c // "tril"

// Options tunes the parallel minimum cut computation.
type Options struct {
	// SuccessProb is the target probability that the returned cut is a
	// true minimum cut; default 0.9 (the artifact's setting).
	SuccessProb float64
	// MaxTrials caps the trial count (0 = theory-derived count). Useful
	// for benchmarking fixed workloads.
	MaxTrials int
	// Checkpoint, when non-nil, receives every completed trial's cut so
	// a cancelled run can degrade to the best-so-far answer with a
	// computable achieved success probability. nil (the default) skips
	// all checkpoint work; BSP accounting is identical either way —
	// checkpointing is purely local.
	Checkpoint *Checkpoint
	// Schedule selects the trial scheduling policy; default SchedDynamic.
	// Results are bit-identical across schedules for a fixed seed: trial
	// streams derive from the trial index and ties break on the trial
	// index.
	Schedule Schedule
	// OnTrial, when non-nil, is invoked after each locally executed
	// trial with the trial index. It runs on the executing rank's
	// clock, so its cost is attributed to that rank by the dynamic
	// scheduler — which makes it both a progress hook for serving layers
	// and the injection point load-balance benchmarks use to simulate
	// straggling ranks.
	OnTrial func(trial int)
	// Plan, when non-nil and matching the input, supplies the snapshot's
	// replicated edge view and connectivity bit, letting the run skip
	// AllGatherEdges (recorded on the BSP ledger via SkipComm with the
	// plan's measured cold cost) and the connectivity scan, and, to
	// Parallel, the certificate's outcome (Plan.Cut), computed by the
	// first such run on the snapshot. A mismatched plan (wrong N) is
	// ignored.
	Plan *graph.Plan
}

func (o *Options) defaults() {
	if o.SuccessProb <= 0 || o.SuccessProb >= 1 {
		o.SuccessProb = 0.9
	}
}

// Parallel computes a global minimum cut of the distributed edge array
// with probability at least SuccessProb — the algorithm of §4, led by a
// deterministic certificate. After the edge gather every rank runs the
// same communication-free Nagamochi–Ibaraki pass over the replicated
// graph with the min-degree cut λ̂ as its bound (certify); when it proves
// that no cut is lighter than λ̂, the min-degree cut is the answer, with
// Trials 0 and no randomness drawn. Otherwise the run is
// ParallelTrials's, draw for draw. Rank 0's result is the answer,
// independent of p and of the schedule: when the certificate holds on a
// cold run (or the input is disconnected) every rank computes it, but
// after trials, or from a plan's cached certificate, only rank 0 does,
// and the other ranks return Trials alone.
func Parallel(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, opts Options) *CutResult {
	return parallel(c, n, local, st, opts, true)
}

// ParallelTrials is §4's algorithm as the paper states it: the graph is
// replicated and each trial runs whole on one processor; the trials are
// handed out in dynamically claimed chunks (static block partition under
// SchedStatic), and ranks at or beyond the trial count run none. It draws
// every trial whatever the min-degree cut is, so the paper's figures time
// it, and it is Parallel's body whenever the certificate fails.
func ParallelTrials(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, opts Options) *CutResult {
	return parallel(c, n, local, st, opts, false)
}

func parallel(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, opts Options, tryCert bool) *CutResult {
	opts.defaults()
	if n < 2 {
		return &CutResult{Value: 0, Side: make([]bool, n)}
	}
	pl := opts.Plan
	if !pl.Matches(n) {
		pl = nil
	}

	// Replicate the graph (or read the plan's shared replicated view —
	// rank-order reassembly makes them identical). This is the only
	// communication before the trials: everything below is a local pass
	// over the same bytes on every rank, so every rank computes the same
	// values.
	var all []graph.Edge
	if pl != nil {
		all = pl.Edges
		c.SkipComm(pl.GatherCost.Collectives, pl.GatherCost.Words)
	} else {
		all = dist.AllGatherEdges(c, local)
	}
	g := &graph.Graph{N: n, Edges: all}

	// A disconnected input has minimum cut 0. Warm, the plan's
	// connectivity bit answers without a scan.
	if pl != nil && !pl.Connected || pl == nil && !g.IsConnected() {
		return &CutResult{Value: 0, Side: g.ComponentOf(0)}
	}

	// The certificate: every rank proves the same thing from the same
	// edges, so a proven λ̂ needs no argmin and no side broadcast.
	var proven bool
	var singleVal uint64
	var singleSide []bool
	switch {
	case !tryCert:
		singleVal, singleSide = minDegreeCut(g)
	case pl == nil:
		proven, singleVal, singleSide = certifyMinDegree(c, g)
	default:
		// Warm, the outcome is a fact of the snapshot: the first run on it
		// certifies, its work charged to the rank that does, and every
		// later run at any p reads it. Only rank 0 answers, with a copy of
		// the shared side, as a warm CC run copies the plan's labels.
		var side []bool
		proven, singleVal, side = pl.Cut.Do(func() (bool, uint64, []bool) { return certifyMinDegree(c, g) })
		if proven && c.Rank() != 0 {
			return &CutResult{}
		}
		singleSide = slices.Clone(side)
	}
	if proven {
		return &CutResult{Value: singleVal, Side: singleSide}
	}

	m := len(all)
	trials := Trials(n, m, opts.SuccessProb)
	if opts.MaxTrials > 0 && trials > opts.MaxTrials {
		trials = opts.MaxTrials
	}

	// The min-degree (singleton) cut is the initial best of rank 0 and of
	// every rank that runs a trial, from before its first one; rank 0's
	// stands in the argmin for the ranks that run none. bestTrial is the
	// schedule-independent tie-break: the lowest trial index attaining
	// bestVal wins the global argmin, so the returned side never depends
	// on which rank ran which trial. The singleton ranks after every trial
	// (sentinel index = trials).
	var bestVal uint64 = math.MaxUint64
	var bestSide []bool
	bestTrial := trials
	cp := opts.Checkpoint
	if cp != nil {
		cp.plan(n, m, trials)
	}
	seedBest := func() {
		bestVal, bestSide = singleVal, singleSide
		if cp != nil {
			// Seeded with the singleton before this rank's trials, the
			// checkpoint never takes a bounded trial's (≥ bound, nil)
			// return as its best.
			cp.noteBound(bestVal, bestSide)
		}
	}
	if c.Rank() == 0 {
		seedBest()
	}
	p := c.Size()

	a := getKSArena()
	var first *rng.PrefixSampler // built by the first trial this rank runs
	runTrial := func(i int) {
		if first == nil {
			if bestSide == nil {
				seedBest()
			}
			first = edgeSampler(all)
		}
		// Only a cut that beats the best can matter. A rank runs its
		// trials in increasing index order, so a later trial cannot win a
		// tie against an earlier one; but every trial wins a tie against
		// the singleton, so while the singleton holds, a trial of its value
		// must still solve. The bound changes which leaves solve, never
		// the draws or the work count, so the argmin and the words moved
		// stay schedule-independent (MaxOps is not; see dynamicTrials).
		bound := bestVal
		if bestTrial == trials && bound < math.MaxUint64 {
			bound++
		}
		val, side, work := sequentialTrial(a, g, first, st.At(uint32(i), trialLane), bound)
		c.Ops(work)
		if cp != nil {
			cp.note(val, side)
		}
		if val < bestVal || (val == bestVal && i < bestTrial) {
			bestVal, bestTrial, bestSide = val, i, side
		}
		if opts.OnTrial != nil {
			opts.OnTrial(i)
		}
	}
	if p == 1 || trials < 2 || opts.Schedule == SchedStatic {
		lo, hi := dist.BlockRange(trials, p, c.Rank())
		for i := lo; i < hi; i++ {
			// The trial loop is the one compute phase with no intervening
			// Sync, so it polls the abort flag itself: a cancelled machine
			// stops trialing immediately and unwinds at the collective
			// below instead of burning through the remaining trials.
			if c.Aborting() {
				break
			}
			runTrial(i)
		}
	} else {
		dynamicTrials(c, trials, runTrial)
	}
	putKSArena(a)

	// Global argmin at the root — (value, trial index) in lexicographic
	// order, so the winner is the same cut whichever rank happened to run
	// the winning trial — in one superstep: every other rank sends the
	// root its best and, if it holds one, that cut's side.
	var payload []uint64
	if c.Rank() != 0 {
		payload = []uint64{bestVal, uint64(bestTrial)}
		if bestSide != nil {
			payload = append(payload, packSide(bestSide)...)
		}
	}
	parts := c.Gather(0, payload)
	if c.Rank() != 0 {
		return &CutResult{Trials: trials}
	}
	winTrial := uint64(bestTrial)
	for _, part := range parts[1:] {
		if part[0] < bestVal || part[0] == bestVal && part[1] < winTrial {
			bestVal, winTrial, bestSide = part[0], part[1], unpackSide(part[2:])
		}
	}
	return &CutResult{Value: bestVal, Side: bestSide, Trials: trials}
}
