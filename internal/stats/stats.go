// Package stats provides the summary statistics the benchmarks report
// over repeated executions (the paper's methodology, §5, reports
// medians): the median and the mean.
package stats

import "sort"

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
