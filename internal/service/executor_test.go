package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/planner"
	"repro/internal/trace"
	"repro/internal/transport"
)

// stubExecutor fails its first `fails` executions with a wrapped
// ErrPeerLost, then delegates to Run on a fresh caller-supplied local
// machine — the same code path a shard worker group runs, minus the
// sockets.
type stubExecutor struct {
	p     int
	mu    sync.Mutex
	fails int
	calls int
}

func (s *stubExecutor) MachineP() int { return s.p }

func (s *stubExecutor) Execute(ctx context.Context, sg *StoredGraph, alg string, pr planner.RunParams) (*QueryResult, error) {
	s.mu.Lock()
	s.calls++
	fail := s.calls <= s.fails
	s.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("rank 2 connection reset: %w", transport.ErrPeerLost)
	}
	m, err := bsp.NewMachine(s.p)
	if err != nil {
		return nil, err
	}
	return Run(ctx, sg, alg, pr, planner.Shape{Machine: m})
}

// TestExecutorTransportFailure pins the peer-loss contract: a lost
// worker connection gets the one bounded retry, then surfaces as
// ErrTransport (503 + Retry-After over HTTP, distinct from ErrFaulted),
// is counted under its own outcome, and is never cached — the next
// identical query executes again and succeeds.
func TestExecutorTransportFailure(t *testing.T) {
	ex := &stubExecutor{p: 2, fails: 2} // first attempt + its retry
	e := newTestEngine(t, Config{Workers: 1, Executor: ex})
	e.Registry().Put("g", testGraph(48, 120))

	req := QueryRequest{Graph: "g", Algorithm: AlgCC}
	_, err := e.Query(context.Background(), req)
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if errors.Is(err, ErrFaulted) {
		t.Fatalf("transport failure must not double as ErrFaulted: %v", err)
	}
	if got := StatusOf(err); got != http.StatusServiceUnavailable {
		t.Fatalf("StatusOf = %d, want 503", got)
	}

	// Failure not cached: the identical query runs again — and now
	// succeeds, at the executor's fixed machine size.
	reply, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("query after fabric recovery: %v", err)
	}
	if reply.Outcome != trace.OutcomeExecuted {
		t.Fatalf("outcome %q, want executed (the failed call must not have been cached)", reply.Outcome)
	}
	if reply.Result.Kernel.P != ex.p {
		t.Fatalf("kernel ran at p=%d, want the executor's machine size %d", reply.Result.Kernel.P, ex.p)
	}

	snap := e.Collector().Snapshot()
	if snap.Totals.TransportLost != 1 {
		t.Fatalf("transport_lost = %d, want 1", snap.Totals.TransportLost)
	}
	if snap.Totals.Retried != 1 {
		t.Fatalf("retried = %d, want 1 (peer loss gets the bounded retry)", snap.Totals.Retried)
	}
	if snap.Totals.Faulted != 0 {
		t.Fatalf("faulted = %d, want 0", snap.Totals.Faulted)
	}
}

// TestHTTPTransportFailure drives the same contract end to end over the
// HTTP surface: 503 with a Retry-After header.
func TestHTTPTransportFailure(t *testing.T) {
	ex := &stubExecutor{p: 2, fails: 1 << 30} // never recovers
	e := newTestEngine(t, Config{Workers: 1, Executor: ex})
	e.Registry().Put("g", testGraph(32, 80))
	srv := httptest.NewServer(NewHandlerOpts(e, HandlerOptions{}))
	defer srv.Close()

	body, _ := json.Marshal(QueryRequest{Graph: "g", Algorithm: AlgMinCut})
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 reply lacks Retry-After")
	}
}
