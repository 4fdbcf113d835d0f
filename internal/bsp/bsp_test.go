package bsp

import (
	"errors"
	"testing"
	"time"
)

func TestRunSingleWorker(t *testing.T) {
	ran := false
	st, err := Run(1, func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if st.Supersteps != 0 {
		t.Errorf("supersteps = %d, want 0", st.Supersteps)
	}
}

func TestRunRejectsBadP(t *testing.T) {
	if _, err := Run(0, func(c *Comm) {}); err == nil {
		t.Error("Run(0) succeeded")
	}
	if _, err := Run(-3, func(c *Comm) {}); err == nil {
		t.Error("Run(-3) succeeded")
	}
}

func TestMessageDelivery(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		// Ring: send rank to the right neighbor.
		right := (c.Rank() + 1) % p
		c.Send(right, []uint64{uint64(c.Rank())})
		c.Sync()
		left := (c.Rank() + p - 1) % p
		got := c.Recv(left)
		if len(got) != 1 || got[0] != uint64(left) {
			t.Errorf("rank %d received %v from %d", c.Rank(), got, left)
		}
		// Nothing from other ranks.
		for src := 0; src < p; src++ {
			if src != left && len(c.Recv(src)) != 0 {
				t.Errorf("rank %d: unexpected words from %d", c.Rank(), src)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesVisibleOnlyAfterSync(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []uint64{42})
		}
		if c.Rank() == 1 && len(c.Recv(0)) != 0 {
			t.Error("message visible before Sync")
		}
		c.Sync()
		if c.Rank() == 1 {
			if got := c.Recv(0); len(got) != 1 || got[0] != 42 {
				t.Errorf("after Sync: %v", got)
			}
		}
		// Next superstep clears the inbox.
		c.Sync()
		if c.Rank() == 1 && len(c.Recv(0)) != 0 {
			t.Error("stale message survived a superstep")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendAppendsWithinSuperstep(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []uint64{1, 2})
			c.Send(1, []uint64{3})
		}
		c.Sync()
		if c.Rank() == 1 {
			got := c.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("appended payload = %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendPanicsOutOfRange(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(5, []uint64{1})
		}
		c.Sync()
	})
	if err == nil {
		t.Fatal("out-of-range Send did not fail the run")
	}
}

func TestSuperstepAccounting(t *testing.T) {
	st, err := Run(3, func(c *Comm) {
		c.Sync()
		c.Sync()
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Supersteps != 3 {
		t.Errorf("supersteps = %d, want 3", st.Supersteps)
	}
	if st.CommVolume != 0 {
		t.Errorf("volume = %d, want 0", st.CommVolume)
	}
}

func TestCommVolumeIsHRelation(t *testing.T) {
	// Rank 0 sends 5 words to each of 3 others: h = 15 (sender bound).
	st, err := Run(4, func(c *Comm) {
		if c.Rank() == 0 {
			for dst := 1; dst < 4; dst++ {
				c.Send(dst, []uint64{1, 2, 3, 4, 5})
			}
		}
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CommVolume != 15 {
		t.Errorf("volume = %d, want 15", st.CommVolume)
	}
	// All send 5 words to rank 0: h = 15 (receiver bound).
	st, err = Run(4, func(c *Comm) {
		if c.Rank() != 0 {
			c.Send(0, []uint64{1, 2, 3, 4, 5})
		}
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CommVolume != 15 {
		t.Errorf("volume = %d, want 15", st.CommVolume)
	}
	if len(st.HRelations) != 1 || st.HRelations[0] != 15 {
		t.Errorf("HRelations = %v", st.HRelations)
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	_, err := Run(4, func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		// Other workers would block here forever without abort handling.
		c.Sync()
	})
	if err == nil {
		t.Fatal("panic not propagated")
	}
}

func TestWorkerErrorPanicPreserved(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			panic(sentinel)
		}
		c.Sync()
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestOpsAccounting(t *testing.T) {
	st, err := Run(3, func(c *Comm) {
		c.Ops(uint64(10 * (c.Rank() + 1)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxOps != 30 {
		t.Errorf("MaxOps = %d, want 30", st.MaxOps)
	}
	if st.Workers[0].Ops != 10 || st.Workers[2].Ops != 30 {
		t.Errorf("per-worker ops = %+v", st.Workers)
	}
}

func TestTimingSplit(t *testing.T) {
	st, err := Run(2, func(c *Comm) {
		// Burn a little app time, then sync.
		x := 0
		for i := 0; i < 1_000_00; i++ {
			x += i
		}
		_ = x
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxAppTime <= 0 {
		t.Error("no app time recorded")
	}
	if st.Total() < st.MaxAppTime {
		t.Error("total < app time")
	}
	f := st.CommFraction()
	if f < 0 || f > 1 {
		t.Errorf("CommFraction = %v", f)
	}
}

// accrued is the virtual clock run superstep by superstep: what a fabric
// charging h·WordTime + SyncLatency at every barrier would have summed.
func accrued(st *Stats, cm CostModel) time.Duration {
	var d time.Duration
	for _, h := range st.HRelations {
		d += time.Duration(h)*cm.WordTime + cm.SyncLatency
	}
	return d
}

func TestSimCommVirtualClock(t *testing.T) {
	// One superstep with h=10: virtual comm = 10·WordTime + SyncLatency,
	// for every interconnect the one ledger is evaluated on.
	st, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, make([]uint64, 10))
		}
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cost := range []CostModel{
		{WordTime: 3 * time.Microsecond, SyncLatency: 50 * time.Microsecond},
		{WordTime: 40 * time.Nanosecond, SyncLatency: 100 * time.Microsecond},
	} {
		want := 10*cost.WordTime + cost.SyncLatency
		if got := st.SimComm(cost); got != want || got != accrued(st, cost) {
			t.Errorf("SimComm(%+v) = %v, want %v", cost, got, want)
		}
	}
}

func TestRunWithoutCostZeroSim(t *testing.T) {
	st, err := Run(2, func(c *Comm) {
		c.Send(0, []uint64{1, 2, 3})
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.SimComm(CostModel{}); got != 0 {
		t.Errorf("SimComm without model = %v", got)
	}
}

// TestSendSyncStress hammers the mailbox path at p=16: every superstep
// each processor sends a distinct payload to every destination, syncs,
// and verifies every received word. Run under -race (make check) this
// doubles as the data-race stress for the sense-reversing barrier and
// the sender-owned staging rows.
func TestSendSyncStress(t *testing.T) {
	const p = 16
	const rounds = 40
	_, err := Run(p, func(c *Comm) {
		r := uint64(c.Rank())
		for i := uint64(0); i < rounds; i++ {
			for dst := 0; dst < p; dst++ {
				// Vary payload length per (src, dst, round) to exercise
				// buffer reuse with growth and shrinkage.
				k := int((r+uint64(dst)+i)%5) + 1
				payload := make([]uint64, k)
				for j := range payload {
					payload[j] = r<<32 | i<<8 | uint64(j)
				}
				c.Send(dst, payload)
			}
			c.Sync()
			for src := 0; src < p; src++ {
				in := c.Recv(src)
				k := int((uint64(src)+r+i)%5) + 1
				if len(in) != k {
					t.Errorf("rank %d round %d: from %d got %d words, want %d",
						c.Rank(), i, src, len(in), k)
					continue
				}
				for j, w := range in {
					if want := uint64(src)<<32 | i<<8 | uint64(j); w != want {
						t.Errorf("rank %d round %d: word %d from %d = %#x, want %#x",
							c.Rank(), i, j, src, w, want)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
