// Package perfmodel implements the paper's constant-factor BSP
// performance model (§5, "Performance Model"): measured execution time is
// explained as a·(BSP computation) + b·(communication volume)·log p +
// c·(supersteps) + d, where the log p factor accounts for MPI collective
// implementation overhead (Hoefler et al.). Constants are fitted with
// linear least squares over measured runs; the fitted model produces the
// prediction lines of Figures 1 and 6.
//
// It also records the closed-form asymptotic bounds of Table 1 so the
// bench harness can print measured-versus-predicted growth side by side.
package perfmodel

import (
	"errors"
	"math"
)

// Sample is one measured run.
type Sample struct {
	Comp       float64 // measured computation (max local operations)
	Volume     float64 // BSP communication volume in words
	Supersteps float64
	P          float64 // processors
	Time       float64 // measured wall time in seconds
}

// Model holds fitted constants for
// T = A·Comp + B·Volume·log2(P) + C·Supersteps + D.
type Model struct {
	A, B, C, D float64
}

// features maps a sample to its regressor vector.
func features(s Sample) [4]float64 {
	lp := math.Log2(s.P)
	if lp < 1 {
		lp = 1
	}
	return [4]float64{s.Comp, s.Volume * lp, s.Supersteps, 1}
}

// Fit computes the least-squares constants over the samples by solving
// the 4×4 normal equations with Gaussian elimination. Negative fitted
// cost constants are clamped to zero (costs cannot be negative). At least
// 4 samples are required.
func Fit(samples []Sample) (*Model, error) {
	if len(samples) < 4 {
		return nil, errors.New("perfmodel: need at least 4 samples")
	}
	var ata [4][4]float64
	var atb [4]float64
	for _, s := range samples {
		f := features(s)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				ata[i][j] += f[i] * f[j]
			}
			atb[i] += f[i] * s.Time
		}
	}
	x, err := solve4(ata, atb)
	if err != nil {
		return nil, err
	}
	m := &Model{A: x[0], B: x[1], C: x[2], D: x[3]}
	clamped := false
	if m.A < 0 {
		m.A, clamped = 0, true
	}
	if m.B < 0 {
		m.B, clamped = 0, true
	}
	if m.C < 0 {
		m.C, clamped = 0, true
	}
	if clamped || m.D < 0 {
		// Refit the intercept to the residuals of the clamped model so
		// predictions stay centered.
		var sum float64
		for _, s := range samples {
			f := features(s)
			sum += s.Time - m.A*f[0] - m.B*f[1] - m.C*f[2]
		}
		m.D = sum / float64(len(samples))
	}
	if m.D < 0 {
		m.D = 0
	}
	return m, nil
}

// solve4 solves a 4×4 linear system with partial pivoting.
func solve4(a [4][4]float64, b [4]float64) ([4]float64, error) {
	var x [4]float64
	for col := 0; col < 4; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-18 {
			return x, errors.New("perfmodel: singular system (degenerate samples)")
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < 4; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := 3; r >= 0; r-- {
		x[r] = b[r]
		for c := r + 1; c < 4; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x, nil
}

// FitRobust fits the full four-constant model and falls back to the
// reduced two-constant model T = A·Comp + D when the full fit is
// ill-conditioned (strong collinearity across a small sweep — e.g. a
// p-sweep at fixed n keeps volume and supersteps nearly constant, making
// the normal equations useless). The reduced fit is a plain simple
// linear regression and always well-behaved.
func FitRobust(samples []Sample) (*Model, error) {
	full, errFull := Fit(samples)
	red, errRed := fitReduced(samples)
	switch {
	case errFull != nil && errRed != nil:
		return nil, errFull
	case errFull != nil:
		return red, nil
	case errRed != nil:
		return full, nil
	}
	if full.R2(samples) >= red.R2(samples) {
		return full, nil
	}
	return red, nil
}

// fitReduced solves T = A·Comp + D by simple linear regression.
func fitReduced(samples []Sample) (*Model, error) {
	if len(samples) < 2 {
		return nil, errors.New("perfmodel: need at least 2 samples")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		sx += s.Comp
		sy += s.Time
		sxx += s.Comp * s.Comp
		sxy += s.Comp * s.Time
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-18 {
		return nil, errors.New("perfmodel: degenerate reduced fit")
	}
	a := (n*sxy - sx*sy) / den
	d := (sy - a*sx) / n
	if a < 0 {
		a = 0
		d = sy / n
	}
	if d < 0 {
		d = 0
	}
	return &Model{A: a, D: d}, nil
}

// Predict returns the model's time estimate for a run's cost profile.
func (m *Model) Predict(s Sample) float64 {
	f := features(s)
	return m.A*f[0] + m.B*f[1] + m.C*f[2] + m.D*f[3]
}

// R2 returns the coefficient of determination of the model over samples.
func (m *Model) R2(samples []Sample) float64 {
	var mean float64
	for _, s := range samples {
		mean += s.Time
	}
	mean /= float64(len(samples))
	var ssRes, ssTot float64
	for _, s := range samples {
		d := s.Time - m.Predict(s)
		ssRes += d * d
		t := s.Time - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}

// Table 1 bound formulas (up to constants). All logarithms are natural.

func lg(x float64) float64 {
	if x < 2 {
		x = 2
	}
	return math.Log(x)
}

// MCSupersteps is this paper's superstep bound O(log(pm/n²)).
func MCSupersteps(n, m, p float64) float64 {
	v := lg(p * m / (n * n))
	if v < 1 {
		v = 1
	}
	return v
}

// MCComputation is this paper's computation bound O(n²log³n / p).
func MCComputation(n, p float64) float64 {
	l := lg(n)
	return n * n * l * l * l / p
}

// MCVolume is this paper's communication volume bound
// O(n²·log²n·log p / p).
func MCVolume(n, p float64) float64 {
	l := lg(n)
	return n * n * l * l * lg(p) / p
}

// PrevBSPSupersteps is the previous BSP algorithm's O(log n · log² p).
func PrevBSPSupersteps(n, p float64) float64 {
	return lg(n) * lg(p) * lg(p)
}

// PrevBSPComputation is the previous BSP algorithm's
// O(n²·log³n·log p / p).
func PrevBSPComputation(n, p float64) float64 {
	return MCComputation(n, p) * lg(p)
}

// PrevBSPVolume is the previous BSP algorithm's O(n²·log²n·log²p / p).
func PrevBSPVolume(n, p float64) float64 {
	return MCVolume(n, p) * lg(p)
}
