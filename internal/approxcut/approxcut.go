// Package approxcut implements the paper's approximate minimum cut
// algorithm (§3.3): subgraphs of geometrically increasing expected
// sparsity are sampled — iteration i keeps each edge e with probability
// 1-(1-2^-i)^w(e) — and tested for connectivity. The sparsity at which
// subgraphs start disconnecting estimates the minimum cut within an
// O(log n) factor w.h.p., using near-linear work.
//
// The only question ever asked of a sample is "is it connected?", so no
// sample is built or labelled: every rank contracts its share of each
// trial to a spanning forest as it draws, the root merges the forests
// and broadcasts a one-word verdict (see scan). The input's own
// connectivity is asked the same way, as one more forest in the first
// round, and each coin reads only the random bits that decide it. Both
// variants from the paper are provided: the fully pipelined one (every
// trial of every iteration goes through one such round — O(1)
// supersteps) and the practical early-stopping one (iterations run in
// order, a round each, and stop at the first disconnection — O(log µ)
// supersteps, less space and time when the cut is small).
package approxcut

import (
	"math"
	"sync"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Result reports the cut estimate.
type Result struct {
	// Value is the estimate 2^j of the minimum cut, where j is the first
	// iteration at which a sampled subgraph came out disconnected.
	Value uint64
	// Iterations is the number of sparsity levels actually examined.
	Iterations int
	// TrialsPerIteration is the Θ(log n) trial count used.
	TrialsPerIteration int
	// Disconnected reports whether the estimate came from an observed
	// disconnection of a sample. It is false when the input itself is
	// disconnected (Value 0, exact) and when the sparsity scan was
	// exhausted.
	Disconnected bool
}

// Options tunes the algorithm; zero values select defaults.
type Options struct {
	// Trials overrides the number of trials per iteration
	// (default ⌈log2 n⌉, minimum 4).
	Trials int
	// Pipelined batches all iterations into a single connectivity round
	// (§3.3 "Theory" variant). The default is the early-stopping
	// practical variant.
	Pipelined bool
	// Checkpoint, when non-nil, records each sparsity level the
	// early-stopping variant clears, so a cancelled run can degrade to a
	// partial estimate. The pipelined variant is a single round with no
	// intermediate state: it has nothing to record before it is done.
	Checkpoint *Checkpoint
	// Plan, when non-nil and matching the input, supplies the snapshot's
	// total weight and connectivity: the opening TotalWeight AllReduce is
	// skipped (and recorded on the BSP ledger via SkipComm), and the first
	// round carries no forest of the input. The sampled subgraphs are
	// fresh draws per query, so their connectivity rounds have nothing to
	// reuse. A mismatched plan (wrong N) is ignored.
	Plan *graph.Plan
}

// Checkpoint records early-stopping progress across sparsity levels:
// clearing iteration i without a disconnection certifies (w.h.p.) that
// the minimum cut is at least ~2^i, so a deadline-cancelled scan still
// carries a one-sided estimate. Safe for concurrent use by all ranks.
type Checkpoint struct {
	mu         sync.Mutex
	iterations int // sparsity levels cleared without disconnection
	trials     int
	planned    int // total levels the scan would examine
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint { return &Checkpoint{} }

// note records that iteration iter completed without a disconnection
// (idempotent across ranks — the maximum wins).
func (cp *Checkpoint) note(iter, trials, planned int) {
	cp.mu.Lock()
	if iter > cp.iterations {
		cp.iterations = iter
	}
	cp.trials, cp.planned = trials, planned
	cp.mu.Unlock()
}

// Partial returns the levels cleared so far, the per-level trial count,
// the planned level count, and whether any level completed.
func (cp *Checkpoint) Partial() (iterations, trials, planned int, ok bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.iterations, cp.trials, cp.planned, cp.iterations > 0
}

// Parallel estimates the minimum cut of the distributed edge array.
// Every processor returns the same result. If the input graph is
// disconnected the estimate is the exact answer 0.
func Parallel(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, opts Options) *Result {
	if n < 2 {
		return &Result{Value: 0}
	}
	pl := opts.Plan
	if !pl.Matches(n) {
		pl = nil
	}
	// ① Total weight bounds the iteration count: at sparsity 2^-i with
	// i ≈ log2 W the expected surviving edge weight is O(1), so some
	// trial disconnects w.h.p. before the scan runs out. Warm, the plan
	// already knows it, and whether the input is connected.
	var w uint64
	if pl != nil {
		w = pl.TotalWeight
		c.SkipComm(pl.WeightCost.Collectives, pl.WeightCost.Words)
		if !pl.Connected {
			return &Result{Value: 0}
		}
	} else {
		w = dist.TotalWeight(c, local)
	}
	if w == 0 {
		return &Result{Value: 0}
	}

	trials := opts.Trials
	if trials == 0 {
		trials = int(math.Ceil(math.Log2(float64(n))))
	}
	if trials < 4 {
		trials = 4
	}
	maxIter := int(math.Ceil(math.Log2(float64(w)))) + 1
	if maxIter < 1 {
		maxIter = 1
	}

	// The early-stopping variant scans one level per round and stops at
	// the first disconnection; the pipelined one scans them all at once.
	step := 1
	if opts.Pipelined {
		step = maxIter
	}
	// Cold, the input must be shown connected for the estimate to mean
	// anything: the first round carries a forest of every rank's whole
	// block ahead of its trials.
	for lo := 1; lo <= maxIter; lo += step {
		hi := lo + step - 1
		i := scan(c, n, local, st, trials, lo, hi, pl == nil && lo == 1)
		if i == inputDisconnected {
			return &Result{Value: 0}
		}
		if i != 0 {
			return &Result{
				Value:              uint64(1) << uint(i),
				Iterations:         hi,
				TrialsPerIteration: trials,
				Disconnected:       true,
			}
		}
		if opts.Checkpoint != nil {
			opts.Checkpoint.note(hi, trials, maxIter)
		}
	}
	return &Result{
		Value:              uint64(1) << uint(maxIter),
		Iterations:         maxIter,
		TrialsPerIteration: trials,
	}
}

// keepProb is the edge retention probability of iteration i for weight w:
// 1 - (1 - 2^-i)^w.
func keepProb(i int, w uint64) float64 {
	q := 1 - math.Exp2(-float64(i))
	return 1 - math.Pow(q, float64(w))
}

// keepThreshold is ⌈keepProb(i, w)·2^53⌉: an edge is kept when a uniform
// 53-bit u is below it, which is Float64() < keepProb as an integer
// compare. Bernoulli's rule that p ≤ 0 and p ≥ 1 consume no draw holds
// too: rng.Bits reads nothing for thresholds 0 and 2^53.
func keepThreshold(i int, w uint64) uint64 {
	return uint64(math.Ceil(keepProb(i, w) * (1 << 53)))
}

// inputDisconnected is scan's verdict when the base forests show the
// input itself disconnected.
const inputDisconnected = -1

// scan samples `trials` subgraphs at each sparsity level lo..hi and
// returns the first level at which one of them is disconnected, 0 if
// none is. Nothing is materialised: per (level, trial) a rank draws its
// slice's edges straight into an n-vertex union-find and keeps only the
// ones that merged two sets — a spanning forest of its share of the
// sample, as a count-prefixed section of packed words u<<32|v (the wire
// format of sparsify.UnweightedForest). With base set, a section with a
// spanning forest of the rank's whole slice, drawn without coins, goes
// ahead of the trials'. One superstep ships the buffers to the root,
// which re-unions the sections trial by trial (the base section first:
// if the input itself is disconnected the verdict is inputDisconnected)
// and broadcasts the verdict, a single word.
//
// Level i's coins come from one rng.Bits over st.Derive(i), read on
// through all of the level's trials in trial-major, edge-minor order:
// each edge reads only the bits that decide it, one at level 1 on unit
// weights, two on average.
func scan(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, trials, lo, hi int, base bool) int {
	const root = 0
	uf := graph.GetUnionFind(n)
	defer graph.PutUnionFind(uf)
	section := min(len(local), n-1) + 1
	// One level's worst case and the base section. A pipelined scan lets
	// append grow it by what its sparser levels really keep, not by
	// levels× as much.
	buf := c.Buffer((trials + 1) * section)[:0]
	if base {
		uf.Reset(n)
		buf = append(buf, 0)
		for k := range local {
			if e := &local[k]; uf.Union(e.U, e.V) {
				buf = append(buf, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
			}
		}
		buf[0] = uint64(len(buf) - 1)
		c.Ops(uint64(len(local)))
	}
	var coins rng.Bits
	for lt := 0; lt < (hi-lo+1)*trials; lt++ {
		// The scan is one compute phase of trials·m/p draws per level
		// with no Sync inside, so it polls the abort flag itself and a
		// cancelled machine unwinds at the Sync below.
		if c.Aborting() {
			break
		}
		i := lo + lt/trials
		if lt%trials == 0 {
			coins = rng.NewBits(st.Derive(uint32(i)))
		}
		uf.Reset(n)
		head := len(buf)
		buf = append(buf, 0)
		// keep is the threshold for the weight last seen.
		var w, keep uint64
		for k := range local {
			e := &local[k]
			if e.W != w {
				w, keep = e.W, keepThreshold(i, e.W)
			}
			kept, ok := coins.TryBelow(keep)
			if !ok {
				kept = coins.Below(keep)
			}
			if kept && uf.Union(e.U, e.V) {
				buf = append(buf, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
			}
		}
		buf[head] = uint64(len(buf) - head - 1)
	}
	c.Ops(uint64(len(local)) * uint64(trials) * uint64(hi-lo+1))
	if c.Rank() != root {
		c.SendOwned(root, buf)
	}
	c.Sync()
	verdict := []uint64{0}
	if c.Rank() == root {
		parts := c.RecvAll()
		parts[root] = buf // the root sends itself nothing
		// merge unions every rank's next section into a reset uf and
		// reports whether the union is disconnected.
		merge := func() bool {
			uf.Reset(n)
			for src, part := range parts {
				k := 1 + int(part[0])
				for _, x := range part[1:k] {
					uf.Union(int32(x>>32), int32(uint32(x)))
				}
				parts[src] = part[k:]
				c.Ops(uint64(k))
			}
			return uf.Count() > 1
		}
		if base && merge() {
			verdict[0] = math.MaxUint64
		} else {
		levels:
			for i := lo; i <= hi; i++ {
				for t := 0; t < trials; t++ {
					if merge() {
						verdict[0] = uint64(i)
						break levels
					}
				}
			}
		}
	}
	if v := c.Broadcast(root, verdict)[0]; v != math.MaxUint64 {
		return int(v)
	}
	return inputDisconnected
}
