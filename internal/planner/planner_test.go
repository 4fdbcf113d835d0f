package planner

import (
	"slices"
	"testing"

	"repro/internal/perfmodel"
)

// bspModel/lightModel are the fixed constants the deterministic tests
// pin decisions with: 1ns/op, 2ns/word (scaled by log2 p), 1µs/superstep,
// and 50µs of fixed overhead for bspModel but 1µs for lightModel.
func bspModel() *perfmodel.Model   { return &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-5} }
func lightModel() *perfmodel.Model { return &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 1e-6} }

// calibratedCC prices the default sampling kernel with bspModel and
// lowround with lightModel, so small graphs route to lowround while
// large volumes still favor sampling.
func calibratedCC() *Planner {
	pl := New(ModeStatic)
	pl.SetModel(KernelCCSampling, bspModel())
	pl.SetModel(KernelCCLowRound, lightModel())
	return pl
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "static": ModeStatic} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "adaptive"} {
		if _, err := ParseMode(s); err == nil {
			t.Fatalf("ParseMode accepted %q", s)
		}
	}
}

// The scored portfolio is exactly these members, in registration order
// (Choose breaks kernel ties by it).
func TestKernelsPortfolio(t *testing.T) {
	var got []string
	for _, k := range Kernels() {
		got = append(got, k.Name)
	}
	want := []string{KernelCCSampling, KernelCCLowRound, KernelMCKargerSt}
	if !slices.Equal(got, want) {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
	got = got[:0]
	for _, k := range KernelsFor("cc") {
		got = append(got, k.Name)
	}
	if want := []string{KernelCCSampling, KernelCCLowRound}; !slices.Equal(got, want) {
		t.Fatalf(`KernelsFor("cc") = %v, want %v`, got, want)
	}
}

func TestHeuristicP(t *testing.T) {
	cases := []struct {
		name     string
		m        int
		explicit int
		maxP     int
		want     int
	}{
		{"empty graph", 0, 0, 16, 1},
		{"small graph stays sequential", 5000, 0, 16, 1},
		{"exactly at the threshold", 8192, 0, 8, 1},
		{"just above threshold doubles once", 10000, 0, 16, 2},
		{"doubling regime", 20000, 0, 16, 4},
		{"keeps doubling past 10k per proc", 40000, 0, 8, 8},
		{"large graph clamped by maxP", 1 << 20, 0, 8, 8},
		{"large graph saturates bigger maxP", 1 << 20, 0, 16, 16},
		{"explicit honored", 100, 3, 16, 3},
		{"explicit non-power-of-two honored", 100, 9, 16, 9},
		{"explicit clamped to maxP", 100, 64, 16, 16},
		{"explicit just over maxP clamped", 100, 99, 16, 16},
		{"explicit with tiny maxP", 100, 8, 2, 2},
		{"maxP floor of one", 1 << 20, 0, 0, 1},
		{"explicit with zero maxP", 100, 4, 0, 1},
	}
	for _, c := range cases {
		if got := HeuristicP(c.m, c.explicit, c.maxP); got != c.want {
			t.Errorf("%s: HeuristicP(%d, %d, %d) = %d, want %d",
				c.name, c.m, c.explicit, c.maxP, got, c.want)
		}
	}
}

func TestChooseFallbackWithoutModels(t *testing.T) {
	pl := New(ModeStatic)
	d := pl.Choose("cc", GraphStats{N: 1000, M: 20000}, Params{}, 0, 16)
	if !d.Fallback {
		t.Fatal("uncalibrated planner did not fall back")
	}
	if d.Kernel != KernelCCSampling {
		t.Fatalf("fallback kernel = %q, want default %q", d.Kernel, KernelCCSampling)
	}
	if d.P != HeuristicP(20000, 0, 16) {
		t.Fatalf("fallback p = %d, want heuristic %d", d.P, HeuristicP(20000, 0, 16))
	}
	if sn := pl.Snapshot(); sn.Fallbacks != 1 || sn.Decisions != 1 {
		t.Fatalf("fallback counters = %+v", sn)
	}
}

func TestChooseCheaperMemberForSmallGraphs(t *testing.T) {
	pl := calibratedCC()
	d := pl.Choose("cc", GraphStats{N: 500, M: 2000, EstDiameter: 6, WeightSkew: 1}, Params{Epsilon: 0.5}, 0, 16)
	if d.Kernel != KernelCCLowRound || d.P != 1 {
		t.Fatalf("small graph decision = %+v, want lowround at p=1", d)
	}
	if !d.Diverged || d.DefaultP != 1 || d.DefaultKernel != KernelCCSampling {
		// lowround at p=1 vs sampling at p=1 — still a kernel divergence.
		t.Fatalf("lowround pick not marked diverged from sampling at p=1: %+v", d)
	}
}

func TestChooseRespectsExplicitP(t *testing.T) {
	pl := calibratedCC()
	// On the small graph lowround at p=1 is cheapest, but a pinned p=16
	// leaves only p=16 candidates.
	small := GraphStats{N: 500, M: 2000, EstDiameter: 6, WeightSkew: 1}
	if d := pl.Choose("cc", small, Params{Epsilon: 0.5}, 16, 16); d.P != 16 {
		t.Fatalf("explicit p=16 not honored on a small graph: %+v", d)
	}
	path := GraphStats{N: 100001, M: 100000, EstDiameter: 100000, WeightSkew: 1}
	d := pl.Choose("cc", path, Params{Epsilon: 0.5}, 16, 16)
	if d.P != 16 {
		t.Fatalf("explicit p=16 not honored: %+v", d)
	}
	if d.Kernel != KernelCCSampling {
		// lowround's n-word AllReduce per round outweighs its lighter
		// overhead on a 100k-vertex path at p=16.
		t.Fatalf("lowround chosen on a high-diameter path at p=16: %+v", d)
	}
}

func TestChooseMincutRouting(t *testing.T) {
	pl := New(ModeStatic)
	pl.SetModel(KernelMCKargerSt, &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-3})
	big := GraphStats{N: 5000, M: 40000, WeightSkew: 1}
	if d := pl.Choose("mincut", big, Params{Trials: 40}, 0, 8); d.Kernel != KernelMCKargerSt || d.Fallback {
		t.Fatalf("mincut = %+v, want calibrated kargerstein", d)
	}
}

func TestObserveWinRateAndError(t *testing.T) {
	pl := calibratedCC()
	st := GraphStats{N: 500, M: 2000, EstDiameter: 6, WeightSkew: 1}
	d := pl.Choose("cc", st, Params{Epsilon: 0.5}, 0, 16)
	if !d.Diverged {
		t.Fatalf("expected divergent decision, got %+v", d)
	}
	// Measured twice as fast as predicted for the default path: a win.
	pl.Observe(d.DefaultPredictedMs/2, &d)
	sn := pl.Snapshot()
	if sn.Executed != 1 || sn.Diverged != 1 || sn.Wins != 1 {
		t.Fatalf("win counters = %+v", sn)
	}
	if sn.WinRate != 1 {
		t.Fatalf("win rate = %v, want 1", sn.WinRate)
	}
	if sn.MeanAbsErr <= 0 {
		t.Fatalf("mean abs err = %v, want > 0", sn.MeanAbsErr)
	}
}

func TestFitSurfacesError(t *testing.T) {
	pl := New(ModeStatic)
	err := pl.Fit(KernelCCSampling, []perfmodel.Sample{{Comp: 1, Time: 1}})
	if err == nil {
		t.Fatal("Fit with 1 sample did not error")
	}
	if got := pl.Calibrated(); len(got) != 0 {
		t.Fatalf("failed fit left a model: %v", got)
	}
	// The planner stays usable: decisions fall back, counted.
	d := pl.Choose("cc", GraphStats{N: 10, M: 10}, Params{}, 0, 4)
	if !d.Fallback {
		t.Fatal("expected fallback after failed fit")
	}
}

// TestCalibrateBuiltins calibrates at the machine sizes the daemon
// meets: one and two cores (serve_mix, a 2-core camcd) as well as four.
// At maxP = 1 every sample shares one p, so each fit rests on the
// measured compute alone; a kernel whose samples all measure the same
// compute (a mincut that proves its answer without charging the passes
// to the ledger, say) would fail to calibrate and silently fall back.
func TestCalibrateBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs real kernels")
	}
	for _, maxP := range []int{1, 2, 4} {
		pl := New(ModeStatic)
		if err := pl.CalibrateBuiltins(maxP); err != nil {
			t.Fatalf("maxP=%d: calibration error: %v", maxP, err)
		}
		want := []string{KernelMCKargerSt, KernelCCLowRound, KernelCCSampling}
		if got := pl.Calibrated(); !slices.Equal(got, want) {
			t.Fatalf("maxP=%d: calibrated kernels = %v, want %v", maxP, got, want)
		}
		// A calibrated planner must never fall back.
		for _, d := range []Decision{
			pl.Choose("cc", GraphStats{N: 1000, M: 5000, EstDiameter: 10, WeightSkew: 1}, Params{Epsilon: 0.5}, 0, maxP),
			pl.Choose("mincut", GraphStats{N: 256, M: 1536, EstDiameter: 6, WeightSkew: 1}, Params{Trials: 92}, 0, maxP),
		} {
			if d.Fallback || d.Kernel == "" {
				t.Fatalf("maxP=%d: calibrated planner fell back: %+v", maxP, d)
			}
		}
	}
}
