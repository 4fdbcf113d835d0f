package transport

import (
	"math"
	"sync"
	"time"
)

// phiDetector is a phi-accrual failure detector over one peer
// connection (Hayashibara et al.): instead of a binary timeout it
// tracks the distribution of heartbeat inter-arrival times and maps
// "time since the last arrival" to a suspicion level
//
//	phi(t) = -log10( P(next arrival is still ahead at t) )
//
// under a normal approximation of the observed intervals. phi grows
// continuously as silence lengthens; the mesh severs the connection
// when phi crosses MeshConfig.PhiThreshold. Every inbound frame counts
// as an arrival, so a peer streaming superstep data never needs to be
// heard from on the heartbeat channel specifically.
//
// The window is seeded with the configured heartbeat interval so a
// fresh connection starts from a sane expectation instead of firing
// (or never firing) on its first silence.
type phiDetector struct {
	mu        sync.Mutex
	last      time.Time          // latest arrival of any frame: phi's silence clock
	lastBeat  time.Time          // latest heartbeat: the interval sample's left end
	intervals [phiWindow]float64 // seconds
	n         int                // filled entries
	idx       int                // next write position
}

const (
	phiWindow           = 16
	defaultPhiThreshold = 8 // MeshConfig.PhiThreshold when unset
)

// newPhiDetector seeds the window with the expected interval and
// counts the handshake (construction time) as the first arrival, so a
// peer that is silent from birth is still detected.
func newPhiDetector(expected time.Duration) *phiDetector {
	now := time.Now()
	d := &phiDetector{last: now, lastBeat: now}
	d.intervals[0] = expected.Seconds()
	d.n, d.idx = 1, 1
	return d
}

// observe records a heartbeat arrival at t, feeding the interval
// window. Only heartbeats are sampled: data and control frames arrive
// in bursts whose sub-millisecond gaps would drag the window's mean to
// near zero, after which one ordinary heartbeat interval of silence
// reads as near-certain death and the maintain loop severs a healthy
// connection. Bursty traffic is proof of life, not a cadence — route
// it through touch. For the same reason the interval runs from the
// previous heartbeat, not from last: a data frame just before the beat
// would otherwise shrink the sample to the gap between the two.
func (d *phiDetector) observe(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.lastBeat.IsZero() {
		iv := t.Sub(d.lastBeat).Seconds()
		if iv > 0 {
			d.intervals[d.idx] = iv
			d.idx = (d.idx + 1) % phiWindow
			if d.n < phiWindow {
				d.n++
			}
		}
	}
	d.lastBeat, d.last = t, t
}

// touch records proof of life at t without sampling an interval — for
// non-heartbeat frames, whose arrival cadence says nothing about the
// heartbeat distribution.
func (d *phiDetector) touch(t time.Time) {
	d.mu.Lock()
	if t.After(d.last) {
		d.last = t
	}
	d.mu.Unlock()
}

// phi returns the suspicion level at time now. Zero before the first
// arrival (a connection that never spoke is the dial path's problem,
// not the detector's).
func (d *phiDetector) phi(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last.IsZero() || d.n == 0 {
		return 0
	}
	var sum, sumSq float64
	for i := 0; i < d.n; i++ {
		sum += d.intervals[i]
		sumSq += d.intervals[i] * d.intervals[i]
	}
	mean := sum / float64(d.n)
	variance := sumSq/float64(d.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	sigma := math.Sqrt(variance)
	// Floor sigma at a quarter of the mean: loopback heartbeats arrive
	// with near-zero jitter, and an unfloored sigma would turn the
	// detector into a hair trigger that fires on one scheduler hiccup.
	if floor := mean / 4; sigma < floor {
		sigma = floor
	}
	elapsed := now.Sub(d.last).Seconds()
	if elapsed <= mean {
		return 0
	}
	// P(still alive) = P(interval > elapsed) under N(mean, sigma²).
	pLater := 0.5 * math.Erfc((elapsed-mean)/(sigma*math.Sqrt2))
	if pLater < 1e-300 {
		pLater = 1e-300
	}
	return -math.Log10(pLater)
}
