package perfmodel

import (
	"math"
	"testing"
)

func synth(a, b, c, d float64, n int) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		s := Sample{
			Comp:       float64(1000 * (i + 1)),
			Volume:     float64(300 * (i%5 + 1)),
			Supersteps: float64(4 + i%7),
			P:          float64(int(1) << (i % 5)),
		}
		f := features(s)
		s.Time = a*f[0] + b*f[1] + c*f[2] + d
		out = append(out, s)
	}
	return out
}

func TestFitRecoversExactConstants(t *testing.T) {
	a, b, c, d := 2e-8, 5e-7, 1e-4, 0.01
	samples := synth(a, b, c, d, 24)
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]float64{
		"A": {m.A, a}, "B": {m.B, b}, "C": {m.C, c}, "D": {m.D, d},
	} {
		if math.Abs(pair[0]-pair[1]) > 1e-9+0.01*pair[1] {
			t.Errorf("%s = %v, want %v", name, pair[0], pair[1])
		}
	}
	if r2 := m.R2(samples); r2 < 0.999 {
		t.Errorf("R2 = %v on noiseless data", r2)
	}
}

func TestFitWithNoise(t *testing.T) {
	// Constants chosen so each term contributes comparably to the total,
	// keeping the signal well above the 3% noise.
	samples := synth(1e-5, 2e-6, 1e-3, 0.02, 40)
	// Perturb deterministically by ±3%.
	for i := range samples {
		f := 1 + 0.03*math.Sin(float64(i))
		samples[i].Time *= f
	}
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.R2(samples); r2 < 0.95 {
		t.Errorf("R2 = %v with 3%% noise", r2)
	}
}

func TestFitRejectsTooFew(t *testing.T) {
	if _, err := Fit(synth(1, 1, 1, 1, 3)); err == nil {
		t.Error("Fit accepted 3 samples")
	}
}

func TestFitRejectsDegenerate(t *testing.T) {
	// All-identical samples make the normal equations singular.
	s := Sample{Comp: 1, Volume: 1, Supersteps: 1, P: 2, Time: 1}
	if _, err := Fit([]Sample{s, s, s, s, s}); err == nil {
		t.Error("Fit accepted degenerate samples")
	}
}

func TestPredictNonNegativeClamp(t *testing.T) {
	m := &Model{A: 1e-9, B: 0, C: 0, D: 0.5}
	got := m.Predict(Sample{Comp: 1e6, Volume: 10, Supersteps: 2, P: 4})
	if got < 0.5 {
		t.Errorf("Predict = %v", got)
	}
}

func TestTable1BoundsShape(t *testing.T) {
	// Our MC bounds must be strictly below the previous BSP algorithm's
	// (by the log p factor) for p > 2.
	n, m, p := 10000.0, 320000.0, 64.0
	if MCComputation(n, p) >= PrevBSPComputation(n, p) {
		t.Error("computation bound not improved")
	}
	if MCVolume(n, p) >= PrevBSPVolume(n, p) {
		t.Error("volume bound not improved")
	}
	if MCSupersteps(n, m, p) >= PrevBSPSupersteps(n, p) {
		t.Error("superstep bound not improved")
	}
	// Superstep bound grows with p (log(pm/n²)) once pm/n² is above the
	// clamp region, but stays tiny.
	if MCSupersteps(n, m, 4096) <= MCSupersteps(n, m, 1024) {
		t.Error("superstep bound not monotone in p")
	}
	// Perfect strong scaling of computation: double p halves the bound.
	r := MCComputation(n, p) / MCComputation(n, 2*p)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("computation scaling ratio = %v", r)
	}
}

func TestFitRobustFallsBackOnCollinear(t *testing.T) {
	// A p-sweep at fixed n: volume and supersteps ~constant, comp halves.
	// The full fit is ill-conditioned; the robust fit must still produce
	// a usable compute-dominated model.
	samples := []Sample{
		{Comp: 8e6, Volume: 1000, Supersteps: 9, P: 1, Time: 8.1},
		{Comp: 4e6, Volume: 1020, Supersteps: 26, P: 2, Time: 4.2},
		{Comp: 2e6, Volume: 1015, Supersteps: 26, P: 4, Time: 2.2},
		{Comp: 1e6, Volume: 1030, Supersteps: 26, P: 8, Time: 1.3},
	}
	m, err := FitRobust(samples)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := m.R2(samples); r2 < 0.9 {
		t.Errorf("robust fit R2 = %v", r2)
	}
	// Prediction at p=2 should be near 4.2s.
	got := m.Predict(samples[1])
	if math.Abs(got-4.2) > 1.0 {
		t.Errorf("prediction %v, want ~4.2", got)
	}
}

func TestFitRobustPrefersFullModel(t *testing.T) {
	samples := synth(1e-5, 2e-6, 1e-3, 0.02, 24)
	m, err := FitRobust(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.B == 0 && m.C == 0 {
		t.Error("robust fit discarded the full model on well-conditioned data")
	}
}
