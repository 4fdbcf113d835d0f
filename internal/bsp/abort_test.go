package bsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// leakGuard snapshots the goroutine count and returns a check that the
// count returned to baseline — a stranded BSP worker is a deadlocked
// barrier, the failure mode the abort protocol exists to prevent.
func leakGuard(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutine leak: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}

// A processor panicking inside a collective must unwind every peer —
// including peers already blocked in the collective's internal barrier.
func TestAbortPanicInsideCollective(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			defer leakGuard(t)()
			_, err := Run(p, func(c *Comm) {
				c.Sync()
				if c.Rank() == p-1 {
					panic("boom in collective")
				}
				c.AllReduce([]uint64{uint64(c.Rank())}, OpSum)
			})
			if err == nil || !strings.Contains(err.Error(), "boom in collective") {
				t.Fatalf("err = %v, want the panic surfaced", err)
			}
			if errors.Is(err, ErrCancelled) {
				t.Fatalf("a panic is a failure, not a cancellation: %v", err)
			}
		})
	}
}

// Cancel while processors are pounding the barrier: whatever instant the
// flag lands, every processor must unwind and Run must report
// ErrCancelled wrapping the cause.
func TestCancelRacingSync(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			defer leakGuard(t)()
			m, err := NewMachine(p)
			if err != nil {
				t.Fatal(err)
			}
			cause := errors.New("operator said stop")
			errCh := make(chan error, 1)
			go func() {
				_, err := m.Run(func(c *Comm) {
					for {
						c.AllReduce([]uint64{uint64(c.Rank())}, OpSum)
					}
				})
				errCh <- err
			}()
			time.Sleep(2 * time.Millisecond)
			m.Cancel(cause)
			select {
			case err = <-errCh:
			case <-time.After(10 * time.Second):
				t.Fatal("run did not unwind after Cancel")
			}
			if !errors.Is(err, ErrCancelled) || !errors.Is(err, cause) {
				t.Fatalf("err = %v, want ErrCancelled wrapping the cause", err)
			}
		})
	}
}

// A compute-only loop that polls Aborting must observe the flag without
// ever reaching a Sync.
func TestAbortingPollInComputePhase(t *testing.T) {
	defer leakGuard(t)()
	m, err := NewMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		_, err := m.Run(func(c *Comm) {
			for !c.Aborting() {
				polls.Add(1)
			}
			c.Sync() // unwinds here: the flag is set
		})
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	m.Cancel(errors.New("poll test"))
	if err := <-errCh; !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if polls.Load() == 0 {
		t.Fatal("compute loop never ran")
	}
}

// runCtx runs body on a fresh p-processor machine bound to ctx.
func runCtx(t *testing.T, ctx context.Context, p int, body func(c *Comm)) (*Stats, error) {
	t.Helper()
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	return m.RunCtx(ctx, body)
}

func TestRunCtx(t *testing.T) {
	t.Run("deadline", func(t *testing.T) {
		defer leakGuard(t)()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, err := runCtx(t, ctx, 4, func(c *Comm) {
			for {
				c.Sync()
			}
		})
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrCancelled wrapping DeadlineExceeded", err)
		}
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		defer leakGuard(t)()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		_, err := runCtx(t, ctx, 2, func(c *Comm) { ran = true })
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
		if ran {
			t.Fatal("body ran under a pre-cancelled context")
		}
	})
	t.Run("completes-before-cancel", func(t *testing.T) {
		defer leakGuard(t)()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st, err := runCtx(t, ctx, 4, func(c *Comm) {
			c.AllReduce([]uint64{1}, OpSum)
		})
		if err != nil {
			t.Fatalf("err = %v, want success", err)
		}
		if st.Supersteps == 0 {
			t.Fatal("no supersteps recorded")
		}
	})
	t.Run("background-degenerates-to-run", func(t *testing.T) {
		defer leakGuard(t)()
		if _, err := runCtx(t, context.Background(), 2, func(c *Comm) { c.Sync() }); err != nil {
			t.Fatalf("err = %v", err)
		}
	})
}

// A cancelled machine must be reusable: reset clears the flag and the
// next Run completes normally (the property machine pooling relies on).
func TestMachineReuseAfterCancel(t *testing.T) {
	defer leakGuard(t)()
	m, err := NewMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := m.Run(func(c *Comm) {
			for {
				c.Sync()
			}
		})
		errCh <- err
	}()
	time.Sleep(time.Millisecond)
	m.Cancel(errors.New("first run dies"))
	if err := <-errCh; !errors.Is(err, ErrCancelled) {
		t.Fatalf("first run err = %v, want ErrCancelled", err)
	}
	st, err := m.Run(func(c *Comm) {
		c.AllReduce([]uint64{uint64(c.Rank() + 1)}, OpSum)
	})
	if err != nil {
		t.Fatalf("second run err = %v, want clean success", err)
	}
	if st.Supersteps == 0 {
		t.Fatal("second run recorded no supersteps")
	}
}

// Injected faults drive the same protocol: a panic rule fails the run, a
// cancel rule cancels it, and a disabled registry injects nothing.
func TestFaultHookInjection(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		defer leakGuard(t)()
		reg := faults.New(1).Add(faults.Rule{Kind: faults.Panic, Rank: 1, Superstep: 2})
		m, err := NewMachine(4)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaultHook(reg.Hook(m))
		_, err = m.Run(func(c *Comm) {
			for i := 0; i < 8; i++ {
				c.Sync()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "injected panic at rank 1 superstep 2") {
			t.Fatalf("err = %v, want the injected panic", err)
		}
		if got := reg.TotalFired(); got != 1 {
			t.Fatalf("fired = %d, want 1", got)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		defer leakGuard(t)()
		reg := faults.New(1).Add(faults.Rule{Kind: faults.Cancel, Rank: faults.AnyRank, Superstep: 1})
		m, err := NewMachine(4)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaultHook(reg.Hook(m))
		_, err = m.Run(func(c *Comm) {
			for i := 0; i < 8; i++ {
				c.Sync()
			}
		})
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled", err)
		}
	})
	t.Run("disabled-is-nil-hook", func(t *testing.T) {
		defer leakGuard(t)()
		reg := faults.New(1).Add(faults.Rule{Kind: faults.Panic, Rank: 0, Superstep: 0})
		reg.Enable(false)
		if h := reg.Hook(nil); h != nil {
			t.Fatal("disabled registry compiled a non-nil hook")
		}
		var nilReg *faults.Registry
		if h := nilReg.Hook(nil); h != nil {
			t.Fatal("nil registry compiled a non-nil hook")
		}
	})
}
