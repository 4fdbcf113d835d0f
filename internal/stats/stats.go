// Package stats provides the statistical machinery of the paper's
// methodology (§5): medians over repeated executions and nonparametric
// bootstrap confidence intervals for the median, used to decide when
// enough measurements have been collected (the artifact iterates until
// the 95% CI is within 5% of the reported median).
package stats

import (
	"errors"
	"math"
	"sort"

	"repro/internal/rng"
)

// Median returns the median of xs (mean of the middle two for even
// lengths). It panics on empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
}

// Width returns the CI width relative to center (0 when center is 0).
func (c CI) RelativeWidth(center float64) float64 {
	if center == 0 {
		return 0
	}
	return (c.Hi - c.Lo) / math.Abs(center)
}

// BootstrapMedianCI estimates a confidence interval for the median of xs
// at the given level (e.g. 0.95) using `resamples` bootstrap resamples
// drawn from st. Needs at least 2 observations.
func BootstrapMedianCI(xs []float64, level float64, resamples int, st *rng.Stream) (CI, error) {
	if len(xs) < 2 {
		return CI{}, errors.New("stats: need >= 2 observations")
	}
	if level <= 0 || level >= 1 {
		return CI{}, errors.New("stats: level must be in (0,1)")
	}
	if resamples < 10 {
		resamples = 1000
	}
	meds := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := range meds {
		for i := range buf {
			buf[i] = xs[st.Intn(len(xs))]
		}
		meds[r] = Median(buf)
	}
	sort.Float64s(meds)
	alpha := (1 - level) / 2
	lo := int(alpha * float64(resamples))
	hi := int((1 - alpha) * float64(resamples))
	if hi >= resamples {
		hi = resamples - 1
	}
	return CI{Lo: meds[lo], Hi: meds[hi]}, nil
}
