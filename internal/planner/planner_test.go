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

// fakeCC names the second CC member the cross-kernel tests register:
// the table ships one member per algorithm, and Choose's argmin,
// tie-break and divergence accounting need two.
const fakeCC = "fakecc"

// registerFakeCC adds fakeCC for the rest of the test. It runs the
// default member's kernel, so every pick is result-equivalent; cost is
// its cost profile, or — nil — a few rounds of one n-word all-reduce
// each, lighter than sampling's on small graphs and far heavier on a
// large p.
func registerFakeCC(t *testing.T, cost func(GraphStats, int, Params) perfmodel.Sample) {
	if cost == nil {
		cost = func(st GraphStats, p int, _ Params) perfmodel.Sample {
			n, m := float64(st.N), float64(st.M)
			return perfmodel.Sample{Comp: 4 * (m/float64(p) + 2*n), Volume: 4 * xVol(p, n), Supersteps: 18, P: float64(p)}
		}
	}
	t.Cleanup(Register(&Kernel{Name: fakeCC, Algorithm: "cc", Cost: cost, Run: Lookup("cc", "").Run}))
}

// calibratedCC registers fakeCC and prices the default sampling kernel
// with bspModel and fakeCC with lightModel, so small graphs route to
// fakeCC while large volumes still favor sampling.
func calibratedCC(t *testing.T) *Planner {
	registerFakeCC(t, nil)
	pl := New(ModeStatic)
	pl.SetModel(KernelCCSampling, bspModel())
	pl.SetModel(fakeCC, lightModel())
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

func names(ks []*Kernel) []string {
	var out []string
	for _, k := range ks {
		out = append(out, k.Name)
	}
	return out
}

// The scored portfolio is one member per algorithm; a registered member
// joins it in registration order (Choose breaks kernel ties by it), and
// its remover takes it out again.
func TestKernelsPortfolio(t *testing.T) {
	if got, want := names(Kernels()), []string{KernelCCSampling, KernelMCKargerSt}; !slices.Equal(got, want) {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
	if got, want := names(KernelsFor("cc")), []string{KernelCCSampling}; !slices.Equal(got, want) {
		t.Fatalf(`KernelsFor("cc") = %v, want %v`, got, want)
	}
	t.Run("registered", func(t *testing.T) {
		registerFakeCC(t, nil)
		if got, want := names(KernelsFor("cc")), []string{KernelCCSampling, fakeCC}; !slices.Equal(got, want) {
			t.Fatalf(`KernelsFor("cc") = %v, want %v`, got, want)
		}
		if k := Lookup("cc", fakeCC); k == nil || Lookup("cc", "").Name != KernelCCSampling {
			t.Fatalf("Lookup: fake %v, default %v", k, Lookup("cc", ""))
		}
	})
	if got, want := names(KernelsFor("cc")), []string{KernelCCSampling}; !slices.Equal(got, want) {
		t.Fatalf(`after removal KernelsFor("cc") = %v, want %v`, got, want)
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
	pl := calibratedCC(t)
	d := pl.Choose("cc", GraphStats{N: 500, M: 2000}, Params{Epsilon: 0.5}, 0, 16)
	if d.Kernel != fakeCC || d.P != 1 {
		t.Fatalf("small graph decision = %+v, want %s at p=1", d, fakeCC)
	}
	if !d.Diverged || d.DefaultP != 1 || d.DefaultKernel != KernelCCSampling {
		// fakeCC at p=1 vs sampling at p=1 — still a kernel divergence.
		t.Fatalf("%s pick not marked diverged from sampling at p=1: %+v", fakeCC, d)
	}
}

// A member predicted exactly as fast as the default loses the tie: the
// default was registered first, and the decision does not diverge.
func TestChooseTieKeepsRegistrationOrder(t *testing.T) {
	registerFakeCC(t, Lookup("cc", "").Cost)
	pl := New(ModeStatic)
	pl.SetModel(KernelCCSampling, bspModel())
	pl.SetModel(fakeCC, bspModel())
	d := pl.Choose("cc", GraphStats{N: 500, M: 2000}, Params{Epsilon: 0.5}, 0, 1)
	if d.Kernel != KernelCCSampling || d.Diverged {
		t.Fatalf("tie decision = %+v, want the default, not diverged", d)
	}
}

func TestChooseRespectsExplicitP(t *testing.T) {
	pl := calibratedCC(t)
	// On the small graph fakeCC at p=1 is cheapest, but a pinned p=16
	// leaves only p=16 candidates.
	small := GraphStats{N: 500, M: 2000}
	if d := pl.Choose("cc", small, Params{Epsilon: 0.5}, 16, 16); d.P != 16 {
		t.Fatalf("explicit p=16 not honored on a small graph: %+v", d)
	}
	path := GraphStats{N: 100001, M: 100000}
	d := pl.Choose("cc", path, Params{Epsilon: 0.5}, 16, 16)
	if d.P != 16 {
		t.Fatalf("explicit p=16 not honored: %+v", d)
	}
	if d.Kernel != KernelCCSampling {
		// fakeCC's n-word AllReduce per round outweighs its lighter
		// overhead on a 100k-vertex path at p=16.
		t.Fatalf("%s chosen on a 100k-vertex path at p=16: %+v", fakeCC, d)
	}
}

func TestChooseMincutRouting(t *testing.T) {
	pl := New(ModeStatic)
	pl.SetModel(KernelMCKargerSt, &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-3})
	big := GraphStats{N: 5000, M: 40000}
	if d := pl.Choose("mincut", big, Params{Trials: 40}, 0, 8); d.Kernel != KernelMCKargerSt || d.Fallback {
		t.Fatalf("mincut = %+v, want calibrated kargerstein", d)
	}
}

func TestObserveWinRateAndError(t *testing.T) {
	pl := calibratedCC(t)
	st := GraphStats{N: 500, M: 2000}
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
		want := []string{KernelMCKargerSt, KernelCCSampling}
		if got := pl.Calibrated(); !slices.Equal(got, want) {
			t.Fatalf("maxP=%d: calibrated kernels = %v, want %v", maxP, got, want)
		}
		// A calibrated planner must never fall back.
		for _, d := range []Decision{
			pl.Choose("cc", GraphStats{N: 1000, M: 5000}, Params{Epsilon: 0.5}, 0, maxP),
			pl.Choose("mincut", GraphStats{N: 256, M: 1536}, Params{Trials: 92}, 0, maxP),
		} {
			if d.Fallback || d.Kernel == "" {
				t.Fatalf("maxP=%d: calibrated planner fell back: %+v", maxP, d)
			}
		}
	}
}
