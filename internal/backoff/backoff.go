// Package backoff is the repo's one capped-exponential retry delay: the
// frontend's transport retries, the mesh's dial loop, the supervisor's
// respawn loop and the engine's transient-fault retry all draw from it,
// each with its own base and cap.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Jitter computes retry delays with capped exponential backoff and full
// jitter (the AWS architecture-blog scheme): attempt k draws uniformly
// from [0, min(cap, base·2^k)]. Full jitter beats equal or no jitter for
// thundering herds — after a leader crash every queued client retries at
// once, and decorrelating the whole delay (not just a fraction of it)
// spreads the stampede across the window instead of synchronizing it at
// the cap.
//
// The generator is owned (math/rand's global source would contend with
// every other user), seeded so a schedule is replayable, and
// mutex-guarded: delays are drawn on request goroutines.
type Jitter struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	rnd *rand.Rand
}

// New returns a schedule growing from base to cap (0 < base ≤ cap).
func New(base, cap time.Duration, seed int64) *Jitter {
	return &Jitter{base: base, cap: cap, rnd: rand.New(rand.NewSource(seed))}
}

// Delay returns the sleep before retry attempt (attempt 0 = first
// retry).
func (jb *Jitter) Delay(attempt int) time.Duration {
	ceil := jb.base << uint(attempt)
	if ceil > jb.cap || ceil <= 0 { // <= 0: shift overflow
		ceil = jb.cap
	}
	jb.mu.Lock()
	d := time.Duration(jb.rnd.Int63n(int64(ceil) + 1))
	jb.mu.Unlock()
	return d
}
