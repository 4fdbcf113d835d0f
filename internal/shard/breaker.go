package shard

import (
	"sync"
	"time"
)

// Circuit breaker states. The numeric values are the camc_breaker_state
// gauge's encoding.
const (
	breakerClosed   = 0 // normal: requests flow
	breakerHalfOpen = 1 // probing: one trial request in flight
	breakerOpen     = 2 // tripped: requests fail fast (or fail over)
)

func breakerStateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "open"
	}
}

// breaker is a per-leader circuit breaker. consecutive transport
// failures (or 5xx replies) trip it open; after cooldown it admits one
// probe (half-open) and either closes on success or re-opens on
// failure. Failing fast while open is what turns a dead leader from
// "every query burns a full retry budget" into "every query fails over
// (or 503s) immediately" — the breaker is the frontend's memory of the
// failure detector's verdict.
type breaker struct {
	mu        sync.Mutex
	state     int
	failures  int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last tripped
	probing   bool      // half-open: a probe is in flight
	threshold int
	cooldown  time.Duration
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed. In half-open state only
// a single probe is admitted; callers that get true MUST call record()
// with the outcome, or the breaker wedges in probing state.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports a request outcome observed after allow() admitted it.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
	if ok {
		b.state = breakerClosed
		b.failures = 0
		return
	}
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = now
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = now
	}
}

// snapshot returns (state, consecutive failures) for stats/metrics.
func (b *breaker) snapshot() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.failures
}
