package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the percentiles a timing may be reported at, with
// the per-mille share of samples that lies beyond each.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {99, 10}, {99.9, 1}}

// highestPercentile applies the reporting rule: the highest candidate
// percentile that still has at least ten samples beyond it. Below 20
// samples not even the median qualifies and the result is 0.
func highestPercentile(samples int) float64 {
	best := 0.0
	for _, c := range tailPercentiles {
		if samples*c.beyond >= 10*1000 {
			best = c.p
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method the pipeline uses): cut points at (len+1)·k/4.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - 4*j) // after the clamp: short inputs extrapolate, as Python does
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// pipeline's steadiness measure for one metric over repeated runs.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time range in nanoseconds since the trace epoch.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its child spans
// cover: children are clipped to the parent and overlapping children
// are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	at := parent.start
	for _, c := range clipped {
		if c.start > at {
			at = c.start
		}
		if c.end > at {
			covered += c.end - at
			at = c.end
		}
	}
	return parent.end - parent.start - covered
}

// rnd is a splitmix64 stream: tiny, seedable, and identical on every
// platform, so a schedule is a pure function of its seed.
type rnd struct{ s uint64 }

func (r *rnd) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rnd) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks
// 0..n-1 (weight of rank r is 1/(r+1)^s).
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// pick maps a uniform draw u in [0,1) onto a cumulative distribution.
func pick(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u)
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}
