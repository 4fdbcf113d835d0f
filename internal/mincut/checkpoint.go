package mincut

import (
	"math"
	"sync"
)

// Checkpoint accumulates the best cut found across *completed* trials so
// that a cancelled run still holds a useful partial answer. The
// trial-based structure of the algorithm (§4: t independent Eager +
// Recursive trials, best cut wins) makes this sound: every completed
// trial is a full, independent sample, so the best over k ≤ t of them is
// a valid cut whose success probability 1-(1-q)^k is exactly computable
// from the per-trial bound q.
//
// All ranks of a machine share one Checkpoint; note() is mutexed but
// copies the side only on improvement, so steady-state cost is one
// uncontended lock per trial. The serving layer reads it after the BSP
// machine has fully unwound.
type Checkpoint struct {
	mu      sync.Mutex
	n, m    int
	planned int
	done    int
	value   uint64
	side    []bool
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{value: math.MaxUint64}
}

// plan records the instance parameters once (idempotent; every rank may
// call it).
func (cp *Checkpoint) plan(n, m, trials int) {
	cp.mu.Lock()
	if cp.planned == 0 {
		cp.n, cp.m, cp.planned = n, m, trials
	}
	cp.mu.Unlock()
}

// note records one completed trial's cut. The side is copied when it
// improves the best, so callers keep ownership.
func (cp *Checkpoint) note(value uint64, side []bool) {
	cp.mu.Lock()
	cp.done++
	if value < cp.value {
		cp.value = value
		cp.side = append(cp.side[:0], side...)
	}
	cp.mu.Unlock()
}

// noteBound folds a deterministic cut bound (the min-degree cut) into
// the best without counting it as a randomized trial.
func (cp *Checkpoint) noteBound(value uint64, side []bool) {
	cp.mu.Lock()
	if value < cp.value && len(side) > 0 {
		cp.value = value
		cp.side = append(cp.side[:0], side...)
	}
	cp.mu.Unlock()
}

// Best returns the best cut over completed trials, the completed and
// planned trial counts, and whether any trial completed at all.
func (cp *Checkpoint) Best() (value uint64, side []bool, done, planned int, ok bool) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.done == 0 || cp.side == nil {
		return 0, nil, cp.done, cp.planned, false
	}
	out := make([]bool, len(cp.side))
	copy(out, cp.side)
	return cp.value, out, cp.done, cp.planned, true
}

// AchievedProb returns the success probability achieved by the
// completed trials.
func (cp *Checkpoint) AchievedProb() float64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return AchievedProb(cp.n, cp.m, cp.done)
}

// AchievedProb returns the probability that the best cut over `trials`
// independent Eager+Recursive trials on an (n, m) instance is a true
// minimum cut: 1-(1-q)^trials for the per-trial success bound q of
// Lemmas 2.1/2.2. It is the quantity a degraded (deadline-cancelled)
// result reports in place of the requested success probability.
func AchievedProb(n, m, trials int) float64 {
	if trials <= 0 {
		return 0
	}
	if n < 8 || m == 0 {
		// Trials() schedules a single trial here; it is exhaustive enough
		// that one completed trial meets any target.
		return 1
	}
	q := perTrialSuccess(n, m, BaseCaseSize)
	return 1 - math.Pow(1-q, float64(trials))
}
