package faults

import (
	"strings"
	"testing"
	"time"
)

type fakeCanceller struct{ causes []error }

func (f *fakeCanceller) Cancel(err error) { f.causes = append(f.causes, err) }

func TestParse(t *testing.T) {
	t.Run("empty-disables", func(t *testing.T) {
		for _, spec := range []string{"", "   ", "\t\n"} {
			r, err := Parse(spec)
			if r != nil || err != nil {
				t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, r, err)
			}
			if r.Enabled() {
				t.Fatal("nil registry reports enabled")
			}
		}
	})
	t.Run("full-grammar", func(t *testing.T) {
		r, err := Parse("seed=7;stall@0:2:50ms;panic@1:3;cancel@*:4;panic@*:*:p0.25:x*")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Enabled() {
			t.Fatal("parsed registry not enabled")
		}
		if r.seed != 7 {
			t.Fatalf("seed = %d, want 7", r.seed)
		}
		if len(r.rules) != 4 {
			t.Fatalf("rules = %d, want 4", len(r.rules))
		}
		want := []Rule{
			{Kind: Stall, Rank: 0, Superstep: 2, Delay: 50 * time.Millisecond},
			{Kind: Panic, Rank: 1, Superstep: 3},
			{Kind: Cancel, Rank: AnyRank, Superstep: 4},
			{Kind: Panic, Rank: AnyRank, Superstep: AnySuperstep, Prob: 0.25, Times: -1},
		}
		for i, w := range want {
			if got := r.rules[i].Rule; got != w {
				t.Errorf("rule %d = %+v, want %+v", i, got, w)
			}
		}
		// Point rules default to one fire; probabilistic x* is unlimited.
		if got := r.rules[0].remaining.Load(); got != 1 {
			t.Errorf("point rule remaining = %d, want 1", got)
		}
		if got := r.rules[3].remaining.Load(); got != -1 {
			t.Errorf("x* rule remaining = %d, want -1", got)
		}
	})
	t.Run("self-healing-kinds", func(t *testing.T) {
		r, err := Parse("crash@1:2;partition@2:1:300ms")
		if err != nil {
			t.Fatal(err)
		}
		want := []Rule{
			{Kind: Crash, Rank: 1, Superstep: 2},
			{Kind: Partition, Rank: 2, Superstep: 1, Delay: 300 * time.Millisecond},
		}
		for i, w := range want {
			if got := r.rules[i].Rule; got != w {
				t.Errorf("rule %d = %+v, want %+v", i, got, w)
			}
		}
		if Crash.String() != "crash" || Partition.String() != "partition" {
			t.Errorf("kind strings: %q, %q", Crash.String(), Partition.String())
		}
		// Both are transport kinds: the Sync hook skips them, the wire
		// hook fires them.
		hook := r.Hook(nil)
		hook(1, 2)
		hook(2, 1)
		if n := r.TotalFired(); n != 0 {
			t.Fatalf("Sync hook consumed %d transport firings", n)
		}
		wh1 := r.WireHook(1)
		if _, _, crash, _ := wh1(2); !crash {
			t.Fatal("crash@1:2 did not fire through the wire hook")
		}
		if _, _, crash, _ := wh1(2); crash {
			t.Fatal("crash@1:2 fired twice")
		}
		wh2 := r.WireHook(2)
		if _, _, _, part := wh2(1); part != 300*time.Millisecond {
			t.Fatalf("partition@2:1:300ms gave %v", part)
		}
		if r.Fired()["crash"] != 1 || r.Fired()["partition"] != 1 {
			t.Fatalf("fired = %v", r.Fired())
		}
	})
	t.Run("rejects", func(t *testing.T) {
		for _, spec := range []string{
			"bogus@0:1",      // unknown kind
			"panic@0",        // missing superstep
			"panic",          // no @
			"stall@0:1",      // stall without duration
			"partition@0:1",  // partition without duration
			"panic@-1:0",     // negative rank
			"panic@0:1:p1.5", // probability out of range
			"panic@0:1:x0",   // zero fire count
			"panic@0:1:huh",  // unparsable option
			"seed=banana;p@0:1",
			"seed=1", // seed but no rules
		} {
			if _, err := Parse(spec); err == nil {
				t.Errorf("Parse(%q) accepted, want error", spec)
			}
		}
	})
}

func TestHookFiring(t *testing.T) {
	t.Run("point-rule-fires-once", func(t *testing.T) {
		target := &fakeCanceller{}
		r := New(1).Add(Rule{Kind: Cancel, Rank: 2, Superstep: 5})
		h := r.Hook(target)
		if h == nil {
			t.Fatal("enabled registry compiled nil hook")
		}
		for ss := uint64(0); ss < 10; ss++ {
			for rank := 0; rank < 4; rank++ {
				h(rank, ss)
				h(rank, ss) // repeated Sync of the same point must not refire
			}
		}
		if len(target.causes) != 1 {
			t.Fatalf("cancel fired %d times, want 1", len(target.causes))
		}
		if !strings.Contains(target.causes[0].Error(), "rank 2 superstep 5") {
			t.Errorf("cause = %v", target.causes[0])
		}
		if got := r.Fired()["cancel"]; got != 1 {
			t.Errorf("Fired()[cancel] = %d, want 1", got)
		}
	})
	t.Run("times-bound", func(t *testing.T) {
		target := &fakeCanceller{}
		r := New(1).Add(Rule{Kind: Cancel, Rank: AnyRank, Superstep: AnySuperstep, Times: 3})
		h := r.Hook(target)
		for i := 0; i < 10; i++ {
			h(i, uint64(i))
		}
		if len(target.causes) != 3 {
			t.Fatalf("fired %d times, want 3", len(target.causes))
		}
	})
	t.Run("stall-sleeps", func(t *testing.T) {
		r := New(1).Add(Rule{Kind: Stall, Rank: 0, Superstep: 0, Delay: 30 * time.Millisecond})
		h := r.Hook(nil)
		start := time.Now()
		h(0, 0)
		if d := time.Since(start); d < 30*time.Millisecond {
			t.Fatalf("stall slept %v, want >= 30ms", d)
		}
	})
	t.Run("panic-fires", func(t *testing.T) {
		r := New(1).Add(Rule{Kind: Panic, Rank: 1, Superstep: 1})
		h := r.Hook(nil)
		h(0, 1) // wrong rank: no fire
		defer func() {
			if rec := recover(); rec == nil {
				t.Fatal("no panic at the matched point")
			}
		}()
		h(1, 1)
	})
	t.Run("disable-mid-flight", func(t *testing.T) {
		target := &fakeCanceller{}
		r := New(1).Add(Rule{Kind: Cancel, Rank: AnyRank, Superstep: AnySuperstep, Times: -1})
		h := r.Hook(target)
		h(0, 0)
		r.Enable(false)
		h(0, 1)
		if len(target.causes) != 1 {
			t.Fatalf("fired %d times after disable, want 1", len(target.causes))
		}
	})
}

// The probabilistic roll must be a pure function of (seed, rule, rank,
// superstep): identical seeds agree point-for-point, and the firing rate
// lands near the requested probability.
func TestProbabilisticDeterminism(t *testing.T) {
	fires := func(seed uint64) []bool {
		r := New(seed).Add(Rule{Kind: Cancel, Rank: AnyRank, Superstep: AnySuperstep, Prob: 0.3})
		var out []bool
		for rank := 0; rank < 16; rank++ {
			for ss := uint64(0); ss < 64; ss++ {
				out = append(out, r.roll(0, 0.3, rank, ss))
			}
		}
		return out
	}
	a, b := fires(42), fires(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at point %d", i)
		}
	}
	c := fires(43)
	diff, hits := 0, 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
		if a[i] {
			hits++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical patterns")
	}
	rate := float64(hits) / float64(len(a))
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("firing rate %.3f far from requested 0.3", rate)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvVar, "panic@0:1")
	r, err := FromEnv()
	if err != nil || !r.Enabled() {
		t.Fatalf("FromEnv = %v, %v", r, err)
	}
	t.Setenv(EnvVar, "")
	r, err = FromEnv()
	if r != nil || err != nil {
		t.Fatalf("empty env: FromEnv = %v, %v; want nil, nil", r, err)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry enabled")
	}
	if h := r.Hook(nil); h != nil {
		t.Fatal("nil registry compiled a hook")
	}
	if got := r.TotalFired(); got != 0 {
		t.Fatal("nil registry fired")
	}
	if m := r.Fired(); len(m) != 0 {
		t.Fatal("nil registry Fired() non-empty")
	}
}

func TestParseTransportKinds(t *testing.T) {
	r, err := Parse("drop@1:5;stall-conn@2:3:80ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rules) != 2 {
		t.Fatalf("got %d rules", len(r.rules))
	}
	if r.rules[0].Kind != Drop || r.rules[0].Rank != 1 || r.rules[0].Superstep != 5 {
		t.Fatalf("drop rule = %+v", r.rules[0].Rule)
	}
	if r.rules[1].Kind != StallConn || r.rules[1].Delay != 80*time.Millisecond {
		t.Fatalf("stall-conn rule = %+v", r.rules[1].Rule)
	}
	if _, err := Parse("stall-conn@0:1"); err == nil {
		t.Fatal("stall-conn without duration must not parse")
	}
	if _, err := Parse("drop@x:1"); err == nil {
		t.Fatal("bad rank must not parse")
	}
}

func TestWireHookFiring(t *testing.T) {
	r, err := Parse("drop@1:5;stall-conn@2:3:80ms")
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0 matches no transport rule: no hook at all.
	if h := r.WireHook(0); h != nil {
		t.Fatal("rank 0 got a wire hook despite matching no rule")
	}

	h1 := r.WireHook(1)
	if h1 == nil {
		t.Fatal("rank 1 needs a wire hook")
	}
	if drop, stall, _, _ := h1(4); drop || stall != 0 {
		t.Fatalf("superstep 4 fired: drop=%v stall=%v", drop, stall)
	}
	if drop, _, _, _ := h1(5); !drop {
		t.Fatal("drop@1:5 did not fire at superstep 5")
	}
	// Point rules fire once.
	if drop, _, _, _ := h1(5); drop {
		t.Fatal("drop@1:5 fired twice")
	}

	h2 := r.WireHook(2)
	if _, stall, _, _ := h2(3); stall != 80*time.Millisecond {
		t.Fatalf("stall-conn@2:3:80ms gave %v", stall)
	}
	if r.Fired()["drop"] != 1 || r.Fired()["stall-conn"] != 1 {
		t.Fatalf("fired = %v", r.Fired())
	}
}

// TestSyncHookSkipsTransportKinds pins the split responsibility: a spec
// of pure transport rules compiles to a Sync hook that never fires (the
// rules belong to the wire), and the Sync kinds never leak into the
// wire hook.
func TestSyncHookSkipsTransportKinds(t *testing.T) {
	r, err := Parse("drop@*:*:x*;stall@0:1:5ms")
	if err != nil {
		t.Fatal(err)
	}
	hook := r.Hook(nil)
	hook(0, 0) // would take the drop rule if Sync hooks matched transport kinds
	if got := r.Fired()["drop"]; got != 0 {
		t.Fatalf("Sync hook consumed %d drop firings", got)
	}
	wh := r.WireHook(0)
	if _, stall, _, _ := wh(1); stall != 0 {
		t.Fatal("wire hook fired the Sync-side stall rule")
	}
	if drop, _, _, _ := wh(1); !drop {
		t.Fatal("wildcard drop rule did not fire through the wire hook")
	}
}

// FuzzFaultSpec: no spec panics the parser; an accepted one holds at
// least one rule, every probability lies in [0, 1], and every kind that
// sleeps has a positive duration. Only a blank spec parses to no
// registry.
func FuzzFaultSpec(f *testing.F) {
	for _, spec := range []string{
		"stall@0:2:50ms", "panic@1:3", "cancel@*:4", "drop@1:5",
		"stall-conn@2:3:80ms", "crash@1:2", "partition@2:1:300ms",
		"seed=7;panic@*:*:p0.001:x*", "stall@0:2:50ms:0s", " ; ", "seed=3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := Parse(spec)
		if err != nil {
			return
		}
		if r == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) accepted a non-blank spec with no registry", spec)
			}
			return
		}
		if len(r.rules) == 0 {
			t.Fatalf("Parse(%q) accepted a spec with no rules", spec)
		}
		for _, ru := range r.rules {
			if ru.Prob < 0 || ru.Prob > 1 {
				t.Fatalf("Parse(%q): rule %+v has probability outside [0, 1]", spec, ru.Rule)
			}
			if (ru.Kind == Stall || ru.Kind == StallConn || ru.Kind == Partition) && ru.Delay <= 0 {
				t.Fatalf("Parse(%q): %s rule without a positive duration", spec, ru.Kind)
			}
		}
	})
}
