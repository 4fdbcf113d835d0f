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
// order and stop at the first disconnection — O(log µ) supersteps, less
// space and time when the cut is small). Its rounds are shifted back by
// one trial: the first probes level 1's first trial alone, and each
// later one finishes a level and probes the next, so a level whose first
// trial disconnects draws no other.
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
		c.SkipComm(pl.ApproxCost.Collectives, pl.ApproxCost.Words)
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

	// Both variants walk the level-major (level, trial) sequence, pair k
	// being trial k%trials of level 1+k/trials, in windows of one round
	// each, and stop at the first disconnected pair. The pipelined
	// variant's one window is every pair. The early-stopping variant's
	// first window is level 1's first trial alone — the probe — and every
	// later one the rest of a level plus the next level's probe: when a
	// level's first trial already disconnects, as it does at the answer
	// level of a sparse cut, its other trials are never drawn. Cold, the
	// input must be shown connected for the estimate to mean anything: the
	// first window carries a forest of every rank's whole block ahead of
	// its trials.
	total := maxIter * trials
	to := 1
	if opts.Pipelined {
		to = total
	}
	var coins rng.Bits
	for from := 0; from < total; from, to = to, min(to+trials, total) {
		k := scan(c, n, local, st, trials, from, to, pl == nil && from == 0, &coins)
		if k == inputDisconnected {
			return &Result{Value: 0}
		}
		if k != noDisconnection {
			i := 1 + k/trials
			iters := i
			if opts.Pipelined {
				iters = maxIter
			}
			return &Result{
				Value:              uint64(1) << uint(i),
				Iterations:         iters,
				TrialsPerIteration: trials,
				Disconnected:       true,
			}
		}
		if opts.Checkpoint != nil {
			opts.Checkpoint.note(to/trials, trials, maxIter)
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

// scan's verdicts besides the index of a disconnected pair: no pair of
// the window disconnected, or the base forests show the input itself
// disconnected.
const (
	noDisconnection   = -1
	inputDisconnected = -2
)

// baseSection appends to buf the count-prefixed section of a spanning
// forest of the rank's whole slice, drawn without coins.
func baseSection(c *bsp.Comm, uf *graph.UnionFind, n int, local []graph.Edge, buf []uint64) []uint64 {
	uf.Reset(n)
	head := len(buf)
	buf = append(buf, 0)
	for k := range local {
		if e := &local[k]; uf.Union(e.U, e.V) {
			buf = append(buf, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
		}
	}
	buf[head] = uint64(len(buf) - head - 1)
	c.Ops(uint64(len(local)))
	return buf
}

// ColdPrelude is, in one superstep, the communication a cold run has and
// a warm one skips, for a plan builder to measure: the total-weight
// AllReduce, and each non-root rank's base section, which the cold scan's
// first window carries to the root. Its answer is not read.
func ColdPrelude(c *bsp.Comm, n int, local []graph.Edge) {
	if c.Rank() != 0 {
		uf := graph.GetUnionFind()
		c.Send(0, baseSection(c, uf, n, local, nil))
		graph.PutUnionFind(uf)
	}
	dist.TotalWeight(c, local)
}

// scan samples pairs from..to-1 of the level-major (level, trial)
// sequence — pair k is trial k%trials of sparsity level 1+k/trials — and
// returns the index of the first one whose subgraph is disconnected,
// noDisconnection if none is. Nothing is materialised: per pair a rank
// draws its slice's edges straight into an n-vertex union-find and keeps
// only the ones that merged two sets — a spanning forest of its share of
// the sample, as a count-prefixed section of packed words u<<32|v (the
// wire format of sparsify.UnweightedForest). With base set, a section
// with a spanning forest of the rank's whole slice, drawn without coins,
// goes ahead of the pairs'. One superstep ships the buffers to the root,
// which re-unions the sections pair by pair (the base section first: if
// the input itself is disconnected the verdict is inputDisconnected) and
// broadcasts the verdict, a single word.
//
// Level i's coins come from one rng.Bits over st.Derive(i), read on
// through all of the level's trials in trial-major, edge-minor order:
// each edge reads only the bits that decide it, one at level 1 on unit
// weights, two on average. The reader is *coins, which a window starting
// at a level's trial 0 replaces and every other window reads on, so the
// caller scans consecutive windows with one coins and where a boundary
// falls changes no draw and no verdict.
func scan(c *bsp.Comm, n int, local []graph.Edge, st *rng.Stream, trials, from, to int, base bool, coins *rng.Bits) int {
	const root = 0
	uf := graph.GetUnionFind()
	defer graph.PutUnionFind(uf)
	section := min(len(local), n-1) + 1
	// At most a level's worst case and the base section. A pipelined scan
	// lets append grow it by what its sparser levels really keep, not by
	// levels× as much.
	buf := c.Buffer((min(to-from, trials) + 1) * section)[:0]
	if base {
		buf = baseSection(c, uf, n, local, buf)
	}
	bits := *coins
	for k := from; k < to; k++ {
		// The scan is one compute phase of (to-from)·m/p draws with no
		// Sync inside, so it polls the abort flag itself and a cancelled
		// machine unwinds at the Sync below.
		if c.Aborting() {
			break
		}
		i := 1 + k/trials
		if k%trials == 0 {
			bits = rng.NewBits(st.Derive(uint32(i)))
		}
		uf.Reset(n)
		head := len(buf)
		buf = append(buf, 0)
		// keep is the threshold for the weight last seen.
		var w, keep uint64
		for j := range local {
			e := &local[j]
			if e.W != w {
				w, keep = e.W, keepThreshold(i, e.W)
			}
			kept, ok := bits.TryBelow(keep)
			if !ok {
				kept = bits.Below(keep)
			}
			if kept && uf.Union(e.U, e.V) {
				buf = append(buf, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
			}
		}
		buf[head] = uint64(len(buf) - head - 1)
	}
	*coins = bits
	c.Ops(uint64(len(local)) * uint64(to-from))
	if c.Rank() != root {
		c.SendOwned(root, buf)
	}
	c.Sync()
	// The verdict word is 1 + the disconnected pair's index, 0 for none.
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
			for k := from; k < to; k++ {
				if merge() {
					verdict[0] = uint64(k) + 1
					break
				}
			}
		}
	}
	if v := c.Broadcast(root, verdict)[0]; v != math.MaxUint64 {
		return int(v) - 1
	}
	return inputDisconnected
}
