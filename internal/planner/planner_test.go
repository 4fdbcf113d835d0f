package planner

import (
	"slices"
	"testing"

	"repro/internal/perfmodel"
)

// bspModel is the fixed constants the deterministic tests pin
// decisions with: 1ns/op, 2ns/word (scaled by log2 p), 1µs/superstep and
// 50µs of fixed overhead.
func bspModel() *perfmodel.Model { return &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-5} }

// volumeModel prices one word at 1ms: nothing but p = 1 ships none, so
// it wins every choice.
func volumeModel() *perfmodel.Model { return &perfmodel.Model{A: 1e-9, B: 1e-3, C: 1e-6, D: 5e-5} }

// ccPredictedMs is what m predicts, in ms, for the CC kernel at p.
func ccPredictedMs(m *perfmodel.Model, st GraphStats, p int) float64 {
	return m.Predict(For("cc").Cost(st, p, Params{Epsilon: 0.5})) * 1000
}

// mid is a CC graph the heuristic runs at p = 4 (21k edges, m/p ≤ 8192
// first at p = 4).
var mid = GraphStats{N: 1000, M: 20000}

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

// The table is fixed: one kernel per algorithm, and the two with a
// cost model are the ones Kernels returns.
func TestKernelsPortfolio(t *testing.T) {
	var got []string
	for _, k := range Kernels() {
		got = append(got, k.Name)
	}
	if want := []string{KernelCCSampling, KernelMCKargerSt}; !slices.Equal(got, want) {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
	for alg, want := range map[string]string{"cc": KernelCCSampling, "mincut": KernelMCKargerSt, "approxcut": KernelApproxCut} {
		if k := For(alg); k == nil || k.Name != want || k.Run == nil {
			t.Fatalf("For(%q) = %+v, want %s", alg, k, want)
		}
	}
	if For("approxcut").Cost != nil {
		t.Fatal("approxcut has a cost model; Kernels() would leave it out")
	}
	if k := For("bogus"); k != nil {
		t.Fatalf(`For("bogus") = %+v, want nil`, k)
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
	d := pl.Choose("cc", mid, Params{}, 0, 16)
	if !d.Fallback {
		t.Fatalf("uncalibrated planner decided %+v, want a fallback", d)
	}
	if hp := HeuristicP(mid.M, 0, 16); d.P != hp {
		t.Fatalf("fallback p = %d, want heuristic %d", d.P, hp)
	}
	// approxcut has no cost model, so it always falls back.
	pl.SetModel(KernelCCSampling, bspModel())
	if d := pl.Choose("approxcut", mid, Params{}, 0, 16); !d.Fallback {
		t.Fatalf("approxcut decision = %+v, want a fallback", d)
	}
	if sn := pl.Snapshot(); sn.Fallbacks != 2 || sn.Decisions != 2 {
		t.Fatalf("fallback counters = %+v", sn)
	}
}

// Choose runs an argmin over the candidate p: a large B makes p = 1 —
// the one size that ships no words — beat the heuristic's 4, and a pure
// compute model drives p up to maxP on a graph the heuristic keeps at 1.
func TestChooseArgminOverP(t *testing.T) {
	pl := New(ModeStatic)
	pl.SetModel(KernelCCSampling, volumeModel())
	d := pl.Choose("cc", mid, Params{Epsilon: 0.5}, 0, 16)
	if hp := HeuristicP(mid.M, 0, 16); d.P != 1 || hp != 4 || d.Fallback {
		t.Fatalf("volume-priced decision = %+v, want p=1 against the heuristic's %d", d, hp)
	}
	if d.PredictedMs != ccPredictedMs(volumeModel(), mid, 1) {
		t.Fatalf("chosen p predicted %gms, want the model's %gms at p=1", d.PredictedMs, ccPredictedMs(volumeModel(), mid, 1))
	}
	if hpMs := ccPredictedMs(volumeModel(), mid, 4); d.PredictedMs >= hpMs {
		t.Fatalf("chosen p predicted %gms, not below the heuristic's %gms", d.PredictedMs, hpMs)
	}

	pl.SetModel(KernelCCSampling, &perfmodel.Model{A: 1e-6})
	small := GraphStats{N: 500, M: 8000}
	if d := pl.Choose("cc", small, Params{Epsilon: 0.5}, 0, 8); d.P != 8 || HeuristicP(small.M, 0, 8) != 1 {
		t.Fatalf("compute-priced decision = %+v, want p=8 against the heuristic's 1", d)
	}
}

// A candidate predicted exactly as fast as the heuristic p loses the tie.
func TestChooseTieKeepsHeuristicP(t *testing.T) {
	pl := New(ModeStatic)
	flat := &perfmodel.Model{D: 1e-3} // every p costs the same
	pl.SetModel(KernelCCSampling, flat)
	d := pl.Choose("cc", mid, Params{Epsilon: 0.5}, 0, 16)
	if hp := HeuristicP(mid.M, 0, 16); d.P != hp || d.PredictedMs != ccPredictedMs(flat, mid, hp) {
		t.Fatalf("tie decision = %+v, want the heuristic p=%d at its prediction", d, hp)
	}
}

func TestChooseRespectsExplicitP(t *testing.T) {
	pl := New(ModeStatic)
	pl.SetModel(KernelCCSampling, volumeModel())
	// p = 1 is cheapest under volumeModel, but a pinned p = 16 leaves
	// only p = 16 as a candidate.
	for _, st := range []GraphStats{{N: 500, M: 2000}, mid, {N: 100001, M: 100000}} {
		if d := pl.Choose("cc", st, Params{Epsilon: 0.5}, 16, 16); d.P != 16 || d.PredictedMs != ccPredictedMs(volumeModel(), st, 16) {
			t.Fatalf("explicit p=16 not honored on %+v: %+v", st, d)
		}
	}
	// A pin over maxP is clamped to it.
	if d := pl.Choose("cc", mid, Params{Epsilon: 0.5}, 64, 8); d.P != 8 {
		t.Fatalf("explicit p=64 with maxP=8 ran at p=%d", d.P)
	}
}

func TestChooseMincutRouting(t *testing.T) {
	pl := New(ModeStatic)
	pl.SetModel(KernelMCKargerSt, &perfmodel.Model{A: 1e-9, B: 2e-9, C: 1e-6, D: 5e-3})
	big := GraphStats{N: 5000, M: 40000}
	d := pl.Choose("mincut", big, Params{Trials: 40}, 0, 8)
	if d.Fallback || d.P < 1 || d.P > 8 || d.PredictedMs <= 0 {
		t.Fatalf("mincut = %+v, want a calibrated decision", d)
	}
	if sn := pl.Snapshot(); sn.Decisions != 1 || sn.Fallbacks != 0 {
		t.Fatalf("decisions = %d, fallbacks = %d, want 1 and 0", sn.Decisions, sn.Fallbacks)
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
			if d.Fallback {
				t.Fatalf("maxP=%d: calibrated planner fell back: %+v", maxP, d)
			}
		}
	}
}
