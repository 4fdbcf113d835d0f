package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/trace"
)

// chaosSuccessProb drives the exact min cut trial count high enough that
// the full computation takes several seconds — room for a sub-second
// deadline to land mid-trial-loop deterministically.
const chaosSuccessProb = 0.999999999

// trialGraph is a 3 000-vertex instance whose trial loop runs: two
// Watts–Strogatz halves joined by two edges, a cut lighter than every
// singleton, so the certificate cannot prove the min-degree cut minimum
// and the run must draw its trials.
func trialGraph() *graph.Graph { return gen.PlantedCut(1500, 8, 2, 7) }

// A mincut whose deadline fires mid-trial-loop must come back degraded:
// the best cut over the completed trials, the achieved success
// probability, a retry hint — and it must never enter the cache.
func TestChaosDegradedMincut(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1})
	sg, err := e.Registry().Put("big", trialGraph())
	if err != nil {
		t.Fatal(err)
	}
	planned := mincut.Trials(sg.Snap.N(), sg.Snap.M(), chaosSuccessProb)
	start := time.Now()
	reply, err := e.Query(context.Background(), QueryRequest{
		Graph: "big", Algorithm: AlgMinCut,
		SuccessProb: chaosSuccessProb, TimeoutMillis: 250,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("query: %v (after %v)", err, elapsed)
	}
	res := reply.Result
	if !res.Degraded {
		t.Fatalf("run completed undegraded in %v with %d trials — grow the instance", elapsed, res.Trials)
	}
	if reply.Outcome != trace.OutcomeDegraded {
		t.Errorf("outcome = %q, want %q", reply.Outcome, trace.OutcomeDegraded)
	}
	if res.Trials < 1 || res.Trials >= planned {
		t.Errorf("completed trials = %d, want in [1, %d)", res.Trials, planned)
	}
	if !(res.AchievedProb > 0 && res.AchievedProb < 1) {
		t.Errorf("achieved prob = %v, want in (0, 1)", res.AchievedProb)
	}
	if res.RetryAfterMs <= 0 {
		t.Errorf("retry hint = %d, want > 0", res.RetryAfterMs)
	}
	if res.Value == 0 || len(res.Side) != sg.Snap.N() {
		t.Errorf("degraded cut value=%d |side|=%d, want a real cut over %d vertices",
			res.Value, len(res.Side), sg.Snap.N())
	}
	// The cancelled machine must have been released promptly — the full
	// run takes seconds, the degraded one barely past its deadline.
	if elapsed > 3*time.Second {
		t.Errorf("degraded query took %v, want release within moments of the 250ms deadline", elapsed)
	}
	if got := e.Stats().Cache.Size; got != 0 {
		t.Errorf("cache size = %d after a degraded result, want 0", got)
	}
	waitFor(t, func() bool { return e.Stats().InflightCalls == 0 })
	if tot := e.Stats().Queries.Totals; tot.Degraded != 1 {
		t.Errorf("collector degraded = %d, want 1 (totals %+v)", tot.Degraded, tot)
	}
}

// The acceptance scenario: a slow processor (injected stall) holds a
// superstep while the deadline fires. The machine must be released
// within one superstep of the cancellation — when the straggler wakes
// and hits the next Sync — not after the remaining seconds of trials.
func TestChaosSlowProcessorRelease(t *testing.T) {
	reg := faults.New(1).Add(faults.Rule{
		Kind: faults.Stall, Rank: 1, Superstep: 0, Delay: 600 * time.Millisecond,
	})
	// DisablePlans: the stall rule targets the cold path's edge gather;
	// a warm plan would skip it and the rule would never fire.
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 2, Faults: reg, DisablePlans: true})
	if _, err := e.Registry().Put("big", testGraph(3000, 9000)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reply, err := e.Query(context.Background(), QueryRequest{
		Graph: "big", Algorithm: AlgMinCut, Processors: 2,
		SuccessProb: chaosSuccessProb, TimeoutMillis: 60,
	})
	elapsed := time.Since(start)
	if reg.TotalFired() == 0 {
		t.Fatal("the stall rule never fired")
	}
	// The stall sits in the edge gather, before any trial completes:
	// nothing to degrade to, so the query resolves as cancelled once the
	// straggler clears its superstep.
	if err == nil {
		if !reply.Result.Degraded {
			t.Fatalf("run completed normally in %v — the deadline never landed", elapsed)
		}
	} else if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("release took %v; the machine must unwind one superstep after the 600ms stall, not run out the trials", elapsed)
	}
	waitFor(t, func() bool { return e.Stats().InflightCalls == 0 })
}

// A transiently faulted kernel (one injected panic) must be absorbed by
// the single retry: the caller sees a clean executed result, the
// collector records the retry, and the result is cached as usual.
func TestChaosPanicRetried(t *testing.T) {
	reg := faults.New(1).Add(faults.Rule{Kind: faults.Panic, Rank: 0, Superstep: 1})
	var execs atomic.Int32
	// DisablePlans: a warm cc query has zero supersteps, so the
	// superstep-1 panic rule needs the cold path to exist.
	e := newTestEngine(t, Config{
		Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true,
		BeforeExec: func(string) { execs.Add(1) },
	})
	e.Registry().Put("g", testGraph(64, 160))
	reply, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if err != nil {
		t.Fatalf("query after transient fault: %v", err)
	}
	if reply.Outcome != trace.OutcomeExecuted {
		t.Errorf("outcome = %q, want executed", reply.Outcome)
	}
	if reply.Result.Components != 1 {
		t.Errorf("components = %d, want 1 (correct answer after retry)", reply.Result.Components)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("kernel attempts = %d, want 2 (original + retry)", got)
	}
	if got := reg.TotalFired(); got != 1 {
		t.Errorf("injections = %d, want 1", got)
	}
	st := e.Stats()
	if st.Queries.Totals.Retried != 1 {
		t.Errorf("retried counter = %d, want 1", st.Queries.Totals.Retried)
	}
	if st.Queries.Totals.Queries != 1 {
		t.Errorf("queries counter = %d, want exactly 1 (retry is an event, not a query)", st.Queries.Totals.Queries)
	}
	if st.Cache.Size != 1 {
		t.Errorf("cache size = %d, want the retried result cached", st.Cache.Size)
	}
}

// A persistent fault exhausts the bounded retry and resolves as faulted;
// nothing is cached, and a later run with the fault gone succeeds.
func TestChaosPersistentFault(t *testing.T) {
	reg := faults.New(1).Add(faults.Rule{
		Kind: faults.Panic, Rank: faults.AnyRank, Superstep: 1, Times: -1,
	})
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true})
	e.Registry().Put("g", testGraph(64, 160))
	_, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if !errors.Is(err, ErrFaulted) {
		t.Fatalf("err = %v, want ErrFaulted", err)
	}
	st := e.Stats()
	if st.Queries.Totals.Faulted != 1 || st.Queries.Totals.Retried != 1 {
		t.Errorf("faulted=%d retried=%d, want 1 and 1", st.Queries.Totals.Faulted, st.Queries.Totals.Retried)
	}
	if st.Cache.Size != 0 {
		t.Errorf("cache size = %d after a faulted query, want 0", st.Cache.Size)
	}
	reg.Enable(false)
	reply, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if err != nil || reply.Outcome != trace.OutcomeExecuted {
		t.Fatalf("recovered query = %v, %v; want clean execution", reply, err)
	}
}

// An injected cancellation on an algorithm with no checkpoint (cc) has
// nothing to degrade to: the query resolves as cancelled, uncached.
func TestChaosCancelInjected(t *testing.T) {
	reg := faults.New(1).Add(faults.Rule{Kind: faults.Cancel, Rank: faults.AnyRank, Superstep: 1})
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true})
	e.Registry().Put("g", testGraph(64, 160))
	_, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	st := e.Stats()
	if st.Queries.Totals.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", st.Queries.Totals.Cancelled)
	}
	if st.Cache.Size != 0 {
		t.Errorf("cache size = %d after a cancelled query, want 0", st.Cache.Size)
	}
}

// The HTTP surface of the failure semantics: degraded replies are 200
// with the degradation fields, cancellations map to 408, faults to 503
// with Retry-After, oversized bodies to 413.
func TestChaosHTTP(t *testing.T) {
	t.Run("degraded-200", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1})
		if _, err := e.Registry().Put("big", trialGraph()); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
		defer srv.Close()
		body := `{"graph":"big","algorithm":"mincut","success_prob":0.999999999,"timeout_ms":250,"include_side":true}`
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200 for a degraded result", resp.StatusCode)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if !qr.Degraded || qr.Outcome != trace.OutcomeDegraded {
			t.Fatalf("reply = %+v, want degraded", qr)
		}
		if !(qr.AchievedSuccessProb > 0 && qr.AchievedSuccessProb < 1) || qr.RetryAfterMs <= 0 {
			t.Errorf("achieved=%v retry_after_ms=%d", qr.AchievedSuccessProb, qr.RetryAfterMs)
		}
		if qr.Value == nil || *qr.Value == 0 || len(qr.Side) == 0 {
			t.Errorf("degraded reply lacks the best-so-far cut: %+v", qr)
		}
	})
	t.Run("cancelled-408", func(t *testing.T) {
		reg := faults.New(1).Add(faults.Rule{Kind: faults.Cancel, Rank: faults.AnyRank, Superstep: 1})
		e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true})
		e.Registry().Put("g", testGraph(64, 160))
		srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"graph":"g","algorithm":"cc"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("status = %d, want 408", resp.StatusCode)
		}
	})
	t.Run("faulted-503-retry-after", func(t *testing.T) {
		reg := faults.New(1).Add(faults.Rule{
			Kind: faults.Panic, Rank: faults.AnyRank, Superstep: 1, Times: -1,
		})
		e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true})
		e.Registry().Put("g", testGraph(64, 160))
		srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
		defer srv.Close()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"graph":"g","algorithm":"cc"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 reply lacks Retry-After")
		}
	})
	t.Run("oversized-body-413", func(t *testing.T) {
		e := newTestEngine(t, Config{Workers: 1})
		srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
		defer srv.Close()
		huge := `{"graph":"` + strings.Repeat("a", 1<<20) + `"}`
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(huge)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})
}

// Chaos outcome counts export through trace.Snapshot, so CI can archive
// the injected-fault ledger of a chaos run. CHAOS_SNAPSHOT names an
// extra file to write (the CI artifact); unset, the round-trip is still
// exercised through a temp file.
func TestChaosSnapshotExport(t *testing.T) {
	reg := faults.New(1).Add(faults.Rule{Kind: faults.Panic, Rank: 0, Superstep: 1})
	e := newTestEngine(t, Config{Workers: 1, MaxProcessors: 1, Faults: reg, DisablePlans: true})
	e.Registry().Put("g", testGraph(64, 160))
	if _, err := e.Query(context.Background(), QueryRequest{Graph: "g", Algorithm: AlgCC}); err != nil {
		t.Fatalf("query: %v", err)
	}
	outcomes := e.Collector().Snapshot()
	snap := &trace.Snapshot{Name: "chaos", Outcomes: &outcomes}

	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := trace.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := trace.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Outcomes == nil || back.Outcomes.Totals.Retried != 1 {
		t.Fatalf("round-tripped outcomes = %+v, want retried=1", back.Outcomes)
	}
	if extra := os.Getenv("CHAOS_SNAPSHOT"); extra != "" {
		if err := trace.WriteSnapshotFile(extra, snap); err != nil {
			t.Fatalf("CHAOS_SNAPSHOT %q: %v", extra, err)
		}
	}
}
