package mincut

import (
	"time"

	"repro/internal/bsp"
	"repro/internal/dist"
)

// Schedule selects how trials are distributed over processors.
type Schedule int

const (
	// SchedDynamic (the default) over-decomposes the trials into chunks
	// handed out through cheap O(1)-word claim rounds, so fast ranks
	// absorb the leftover chunks of ranks stuck in expensive trials.
	SchedDynamic Schedule = iota
	// SchedStatic block-partitions the trials over ranks up front — the
	// pre-dynamic behavior, kept for A/B benchmarking and the
	// schedule-independence tests.
	SchedStatic
)

// overdecompose is the chunk count multiplier: trials split into up to
// overdecompose·p chunks. More chunks balance better but add claim
// rounds; ⌈C/p⌉−1 one-word AllGathers is the whole coordination cost.
const overdecompose = 4

// dynamicTrials runs `trials` over the communicator with
// work-stealing-by-consensus: the trials are cut into C = min(t, 4p)
// contiguous chunks; each round, every rank AllGathers the wall-clock
// time it has spent on its trials so far (one word — riding the
// existing collective machinery), then all ranks replicate the same
// greedy least-loaded assignment of the next ≤ p chunks. A rank that
// is slow — an expensive trial, a noisy neighbor, a busy core — shows
// up as a high cumulative time and stops being assigned chunks, so the
// fast ranks absorb its leftovers.
//
// The claimed assignment depends on measured time and so varies run to
// run, and so does one observable: a rank's Ops is the work of the
// trials it claimed, so the run's MaxOps (RunStats.Ops,
// KernelStats.MaxOps) — a max over ranks — moves with the assignment
// at p ≥ 2. Everything else is fixed: the round structure (⌈C/p⌉−1
// claim supersteps of one word per rank) makes superstep counts,
// h-relations, and accounted volume deterministic; and the cut result
// is bit-identical to static scheduling whichever rank runs which
// trial, because trial streams derive from the trial index and the
// winner tie-break is by trial index.
//
// runTrial(i) executes trial i. The first round degenerates to
// round-robin (no timings yet); later rounds see the true imbalance.
func dynamicTrials(c *bsp.Comm, trials int, runTrial func(i int)) {
	p := c.Size()
	chunks := overdecompose * p
	if chunks > trials {
		chunks = trials
	}
	costs := make([]uint64, p) // replicated cumulative trial time per rank
	virtual := make([]uint64, p)
	var myTime uint64
	for next := 0; next < chunks; {
		batch := p
		if chunks-next < batch {
			batch = chunks - next
		}
		mine := assignChunks(costs, virtual, c.Rank(), next, batch)
		next += batch
		for _, ci := range mine {
			lo, hi := dist.BlockRange(trials, chunks, ci)
			for i := lo; i < hi; i++ {
				if c.Aborting() {
					return
				}
				start := time.Now()
				runTrial(i)
				myTime += uint64(time.Since(start))
			}
		}
		if next >= chunks {
			break
		}
		// Claim round: one superstep, one word per rank. The AllGather's
		// views are valid only until the next Sync, so copy out.
		got := c.AllGather([]uint64{myTime})
		for r := 0; r < p; r++ {
			costs[r] = got[r][0]
		}
	}
}

// assignChunks replicates the greedy least-loaded assignment of chunks
// [first, first+count) given every rank's cumulative measured cost: each
// chunk goes to the currently cheapest rank (lowest rank wins ties),
// whose virtual load grows by the average observed per-chunk cost (or 1
// before any measurement, making round 0 round-robin). Every rank runs
// this identically on the replicated costs, so no assignment message is
// ever needed. Returns the chunk indices assigned to `rank`.
func assignChunks(costs, virtual []uint64, rank, first, count int) []int {
	var total uint64
	for _, v := range costs {
		total += v
	}
	est := uint64(1)
	if first > 0 && total > 0 {
		est = total / uint64(first)
		if est == 0 {
			est = 1
		}
	}
	copy(virtual, costs)
	var mine []int
	for j := 0; j < count; j++ {
		r := 0
		for q := 1; q < len(virtual); q++ {
			if virtual[q] < virtual[r] {
				r = q
			}
		}
		if r == rank {
			mine = append(mine, first+j)
		}
		virtual[r] += est
	}
	return mine
}
