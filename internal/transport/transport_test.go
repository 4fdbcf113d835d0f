package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// runLocal drives body on every rank of a fresh Local fabric.
func runLocal(t *testing.T, p int, body func(ep *LocalEndpoint) error) *Local {
	t.Helper()
	l, err := NewLocal(p)
	if err != nil {
		t.Fatalf("NewLocal(%d): %v", p, err)
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(l.Endpoint(r).(*LocalEndpoint))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return l
}

func TestLocalExchangeDelivers(t *testing.T) {
	const p = 4
	l := runLocal(t, p, func(ep *LocalEndpoint) error {
		r := ep.Rank()
		for dst := 0; dst < p; dst++ {
			ep.Send(dst, []uint64{uint64(r*100 + dst)})
		}
		if err := ep.Exchange(); err != nil {
			return err
		}
		for src := 0; src < p; src++ {
			got := ep.Recv(src)
			if len(got) != 1 || got[0] != uint64(src*100+r) {
				return fmt.Errorf("rank %d recv from %d: %v", r, src, got)
			}
		}
		return ep.Exchange()
	})
	led := l.Ledger()
	if led.Supersteps != 2 {
		t.Fatalf("supersteps = %d, want 2", led.Supersteps)
	}
	// Superstep 1: every rank sends p words and receives p words → h = p.
	// Superstep 2: empty → h = 0.
	if len(led.HRelations) != 2 || led.HRelations[0] != p || led.HRelations[1] != 0 {
		t.Fatalf("h-relations = %v, want [%d 0]", led.HRelations, p)
	}
	if led.CommVolume != p {
		t.Fatalf("volume = %d, want %d", led.CommVolume, p)
	}
}

func TestLocalAbortWakesWaiters(t *testing.T) {
	const p = 3
	l, err := NewLocal(p)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := l.Endpoint(r)
			if r == 0 {
				// Rank 0 never arrives; it aborts instead.
				l.Abort(boom)
				return
			}
			errs[r] = ep.Exchange()
		}(r)
	}
	wg.Wait()
	for r := 1; r < p; r++ {
		if !errors.Is(errs[r], boom) {
			t.Fatalf("rank %d exchange error = %v, want %v", r, errs[r], boom)
		}
	}
}

func TestLocalResetClearsAbort(t *testing.T) {
	l, _ := NewLocal(2)
	l.Abort(errors.New("stale"))
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Err() != nil || l.AbortFlag().Load() {
		t.Fatal("reset did not clear abort state")
	}
}
