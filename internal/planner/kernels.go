package planner

import (
	"math"

	"repro/internal/approxcut"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
	"repro/internal/rng"
)

// GraphStats are the snapshot statistics the cost formulas consume: the
// sizes n and m. No shipped formula reads more — the CC sparsifier
// samples unweighted, and the Karger–Stein formula counts edges, not
// weight.
type GraphStats struct {
	N int
	M int
}

// Params are the per-query tuning knobs that change a kernel's cost
// profile: the CC sample-size exponent and the mincut trial count
// (already resolved from n, m, and the success probability by the
// caller, so formulas never re-derive it).
type Params struct {
	Epsilon float64
	Trials  int
}

// RunParams are the normalized, defaulted tuning parameters of one kernel
// run — the canonical identity used for cache keys and coalescing, and
// what a distributed executor ships to its worker processes (the JSON
// form rides the shard CONTROL start frame).
type RunParams struct {
	Seed        uint64  `json:"seed"`
	Epsilon     float64 `json:"epsilon"`
	SuccessProb float64 `json:"success_prob"`
	MaxTrials   int     `json:"max_trials"`
	Trials      int     `json:"trials"`
	Pipelined   bool    `json:"pipelined"`
}

// Defaulted fills each zero field that has a repo-wide default: seed 1,
// ε 0.5 and success probability 0.9 (the artifact's setting). It is the
// one place those defaults are written; the library facade and a query's
// normalization both go through it.
func (par RunParams) Defaulted() RunParams {
	if par.Seed == 0 {
		par.Seed = 1
	}
	if par.Epsilon == 0 {
		par.Epsilon = 0.5
	}
	if par.SuccessProb == 0 {
		par.SuccessProb = 0.9
	}
	return par
}

// Stream is rank c's random stream for a run with these parameters.
func (par RunParams) Stream(c *bsp.Comm) *rng.Stream {
	return rng.New(par.Seed, uint32(c.Rank()), 0)
}

// Outcome is the algorithm-agnostic answer of one kernel run: each kernel
// fills the fields its algorithm defines and leaves the rest zero.
type Outcome struct {
	Value      uint64  // cut value (mincut, approxcut)
	Components int     // component count (cc)
	Iterations int     // sampling rounds (cc) or sparsity levels (approxcut)
	Trials     int     // contraction trials (mincut) or per-level trials (approxcut)
	Labels     []int32 // cc labelling
	Side       []bool  // mincut partition side
	// AchievedProb is the success probability the completed trials
	// actually achieved (mincut, on a Checkpoint's partial outcome).
	AchievedProb float64
}

// Checkpoint is a kernel's own best-so-far recorder for one run: the
// runner allocates it (Kernel.NewCheckpoint), hands it to Run, and asks
// it for a degraded answer when the run is cancelled.
type Checkpoint interface {
	// Partial returns the best-so-far outcome (nil when nothing useful
	// completed) and how many of the planned work units finished.
	Partial() (out *Outcome, done, planned int)
}

type mincutCheckpoint struct{ *mincut.Checkpoint }

func (cp mincutCheckpoint) Partial() (*Outcome, int, int) {
	value, side, done, planned, ok := cp.Best()
	if !ok {
		return nil, 0, 0
	}
	return &Outcome{Value: value, Side: side, Trials: done, AchievedProb: cp.AchievedProb()}, done, planned
}

type approxCheckpoint struct{ *approxcut.Checkpoint }

func (cp approxCheckpoint) Partial() (*Outcome, int, int) {
	iters, trials, planned, ok := cp.Checkpoint.Partial()
	if !ok {
		return nil, 0, 0
	}
	// Clearing iteration i without a disconnection puts the cut above
	// ~2^i w.h.p. — a one-sided estimate, flagged degraded.
	return &Outcome{Value: uint64(1) << uint(iters), Iterations: iters, Trials: trials}, iters, planned
}

// Kernel is one algorithm's implementation: the single entry everything
// that executes it goes through (Exec) and, for the kernels the planner
// sizes, a closed-form cost profile. The table is fixed — one kernel per
// algorithm, the paper's — and For looks it up.
type Kernel struct {
	// Name identifies the kernel in traces and stats.
	Name string
	// Cost estimates the kernel's BSP cost profile on a graph with the
	// given statistics at machine size p. Predicted features approximate
	// the implementation's measured accounting (the fit maps measured
	// features to time, so formula bias shows up directly in the
	// prediction-vs-actual error the trace records). A kernel without a
	// Cost always runs at the heuristic p: calibration and Choose never
	// see it.
	Cost func(st GraphStats, p int, par Params) perfmodel.Sample
	// Run executes the kernel; Exec is its one caller, and the library
	// facade, serving, failover, distributed workers, and calibration all
	// go through Exec. Every kernel runs SPMD — every rank calls Run with
	// its Comm and its block of the edge array; the answer is rank 0's
	// outcome, which Exec keeps, and no kernel ships it to other ranks.
	// plan, if any, is the snapshot-resident plan whose facts replace the
	// matching cold collectives; cp, if any, is what NewCheckpoint
	// returned for this run.
	Run func(c *bsp.Comm, n int, local []graph.Edge, par RunParams, plan *graph.Plan, cp Checkpoint) *Outcome
	// NewCheckpoint, when non-nil, allocates the recorder that lets a
	// cancelled run degrade to a best-so-far answer.
	NewCheckpoint func() Checkpoint
}

// Kernel names, as traces and stats spell them.
const (
	KernelCCSampling = "sampling"    // cc.Parallel — iterated sampling, O(1) supersteps
	KernelMCKargerSt = "kargerstein" // mincut.Parallel — contraction trials
	KernelApproxCut  = "approxcut"   // approxcut.Parallel — no cost model
)

// For returns the kernel answering alg ("cc", "mincut", "approxcut"),
// nil for any other name.
func For(alg string) *Kernel {
	switch alg {
	case "cc":
		return sampling
	case "mincut":
		return kargerstein
	case "approxcut":
		return approxCut
	}
	return nil
}

// Answers reports whether plan pl answers alg outright: a warm run of its
// kernel then runs no superstep, at any p. cc's plan always does; a cut's
// does on a graph under two vertices or disconnected (cut 0), and
// mincut's also once the certificate proves the min-degree cut — a fact
// the first such call establishes from the plan's edges.
func Answers(alg string, pl *graph.Plan) bool {
	switch {
	case pl == nil || For(alg) == nil:
		return false
	case alg == "cc" || pl.N < 2 || !pl.Connected:
		return true
	}
	return alg == "mincut" && mincut.Certified(pl)
}

// Kernels returns the kernels with a Cost: the ones calibration fits and
// Choose sizes.
func Kernels() []*Kernel { return []*Kernel{sampling, kargerstein} }

// xVol is the volume model of one n-word AllReduce/Broadcast-style
// collective as a gather to a root and a broadcast back, ~(p-1)·words in
// each direction. Zero at p=1. AllReduce is one exchange of h = p·words;
// the model stays until ROADMAP item 6 makes the Cost formulas exact.
func xVol(p int, words float64) float64 {
	if p <= 1 {
		return 0
	}
	return 2 * float64(p-1) * words
}

func lg2(x float64) float64 {
	if x < 2 {
		return 1
	}
	return math.Log2(x)
}

// sampling is §3.2's iterated sampling, sized by its cost model.
var sampling = &Kernel{
	Name: KernelCCSampling,
	Cost: func(st GraphStats, p int, par Params) perfmodel.Sample {
		n, m := float64(st.N), float64(st.M)
		eps := RunParams{Epsilon: par.Epsilon}.Defaulted().Epsilon
		full := math.Pow(n, 1+eps/2)
		s := math.Min(full, m)
		// Each non-root rank ships a spanning forest of its
		// ⌈(1+δ)s/p⌉-edge sample (δ = 0.5): at most n-1 one-word edges.
		forest := math.Min(math.Ceil(1.5*s/float64(p)), n-1)
		// A relabelling Broadcast puts ~2n words on the ledger at p ≥ 2
		// (not xVol's gather-to-root): 2(n+1) direct at p = 2, ~2(p−1)n/p
		// two-phase at p ≥ 3. An exact round sends none (the root keeps
		// the labels); the term stays until ROADMAP item 6, as dropping
		// it alone would re-rank p = 1 against p = 2 on serve_mix.
		bcast := 2 * n * btof(p > 1)
		// O(1) rounds w.h.p., empirically 2 when the first one samples;
		// when (1+δ)s ≥ m every rank contributes its whole slice and
		// cc.Parallel leaves after the first.
		rounds := 2.0
		if 1.5*full >= m {
			rounds = 1
		}
		// The exact last round is 2 supersteps at every p (m AllReduce,
		// forest gather); a sampled round adds its relabelling Broadcast
		// at the two-phase 2, so the term moves no choice of p.
		return perfmodel.Sample{
			Comp:       rounds * (m/float64(p) + n + s),
			Volume:     rounds * (float64(p-1)*forest + bcast),
			Supersteps: 4*rounds - 2,
			P:          float64(p),
		}
	},
	Run: func(c *bsp.Comm, n int, local []graph.Edge, par RunParams, plan *graph.Plan, _ Checkpoint) *Outcome {
		r := cc.Parallel(c, n, local, par.Stream(c), cc.Options{Epsilon: par.Epsilon, Plan: plan})
		return &Outcome{Components: r.Count, Iterations: r.Iterations, Labels: r.Labels}
	},
}

// kargerstein is §2.4's Karger–Stein trials, sized by its cost model.
var kargerstein = &Kernel{
	Name: KernelMCKargerSt,
	Cost: func(st GraphStats, p int, par Params) perfmodel.Sample {
		n, m := float64(st.N), float64(st.M)
		t := float64(par.Trials)
		if t < 1 {
			t = 1
		}
		pe := math.Min(float64(p), t) // trials bound usable parallelism
		perTrial := m + n*lg2(n)
		return perfmodel.Sample{
			Comp:       math.Ceil(t/pe)*perTrial + m + n,
			Volume:     3*m*btof(p > 1) + xVol(p, n),
			Supersteps: 14,
			P:          float64(p),
		}
	},
	Run: func(c *bsp.Comm, n int, local []graph.Edge, par RunParams, plan *graph.Plan, cp Checkpoint) *Outcome {
		mcp, _ := cp.(mincutCheckpoint)
		r := mincut.Parallel(c, n, local, par.Stream(c), mincut.Options{
			SuccessProb: par.SuccessProb,
			MaxTrials:   par.MaxTrials,
			Checkpoint:  mcp.Checkpoint,
			Plan:        plan,
		})
		return &Outcome{Value: r.Value, Trials: r.Trials, Side: r.Side}
	},
	NewCheckpoint: func() Checkpoint { return mincutCheckpoint{mincut.NewCheckpoint()} },
}

// approxCut is §3.3's approximate cut; it has no cost model and always
// runs at the heuristic p.
var approxCut = &Kernel{
	Name: KernelApproxCut,
	Run: func(c *bsp.Comm, n int, local []graph.Edge, par RunParams, plan *graph.Plan, cp Checkpoint) *Outcome {
		acp, _ := cp.(approxCheckpoint)
		r := approxcut.Parallel(c, n, local, par.Stream(c), approxcut.Options{
			Trials:     par.Trials,
			Pipelined:  par.Pipelined,
			Checkpoint: acp.Checkpoint,
			Plan:       plan,
		})
		return &Outcome{Value: r.Value, Iterations: r.Iterations, Trials: r.TrialsPerIteration}
	},
	NewCheckpoint: func() Checkpoint { return approxCheckpoint{approxcut.NewCheckpoint()} },
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// StatsOf derives the planner's cost-model inputs from a snapshot.
func StatsOf(s *graph.Snapshot) GraphStats {
	return GraphStats{N: s.N(), M: s.M()}
}
