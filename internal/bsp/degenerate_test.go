package bsp

import (
	"testing"
)

// The service layer sizes the BSP machine per request, so the degenerate
// shapes — a single-processor communicator and empty payloads — are hit
// routinely (tiny graphs run at p=1; block distribution leaves trailing
// ranks with no edges). Every collective must behave at these extremes.

func TestCollectivesP1(t *testing.T) {
	st, err := Run(1, func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size = %d/%d", c.Rank(), c.Size())
		}
		b := c.Broadcast(0, []uint64{7, 8})
		if len(b) != 2 || b[0] != 7 || b[1] != 8 {
			t.Errorf("broadcast = %v", b)
		}
		g := c.Gather(0, []uint64{5})
		if len(g) != 1 || len(g[0]) != 1 || g[0][0] != 5 {
			t.Errorf("gather = %v", g)
		}
		ag := c.AllGather([]uint64{9})
		if len(ag) != 1 || ag[0][0] != 9 {
			t.Errorf("allgather = %v", ag)
		}
		sc := c.Scatter(0, [][]uint64{{1, 2}})
		if len(sc) != 2 || sc[0] != 1 {
			t.Errorf("scatter = %v", sc)
		}
		aa := c.AllToAll([][]uint64{{3}})
		if len(aa) != 1 || aa[0][0] != 3 {
			t.Errorf("alltoall = %v", aa)
		}
		r := c.Reduce(0, []uint64{4, 6}, OpSum)
		if len(r) != 2 || r[0] != 4 || r[1] != 6 {
			t.Errorf("reduce = %v", r)
		}
		ar := c.AllReduce([]uint64{11}, OpMax)
		if len(ar) != 1 || ar[0] != 11 {
			t.Errorf("allreduce = %v", ar)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.P != 1 {
		t.Errorf("stats P = %d", st.P)
	}
}

func TestBroadcastEmptyPayload(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		_, err := Run(p, func(c *Comm) {
			var words []uint64
			if c.Rank() == 0 {
				words = []uint64{}
			}
			out := c.Broadcast(0, words)
			if len(out) != 0 {
				t.Errorf("p=%d: broadcast of empty payload returned %v", p, out)
			}
			// nil works the same as empty.
			out = c.Broadcast(0, nil)
			if len(out) != 0 {
				t.Errorf("p=%d: broadcast of nil returned %v", p, out)
			}
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestCollectivesEmptyPayloads(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		g := c.Gather(0, nil)
		if c.Rank() == 0 {
			if len(g) != p {
				t.Errorf("gather shape %d", len(g))
			}
			for src, in := range g {
				if len(in) != 0 {
					t.Errorf("gather from %d = %v", src, in)
				}
			}
		} else if g != nil {
			t.Errorf("non-root gather = %v", g)
		}

		ag := c.AllGather(nil)
		if len(ag) != p {
			t.Errorf("allgather shape %d", len(ag))
		}
		for src, in := range ag {
			if len(in) != 0 {
				t.Errorf("allgather from %d = %v", src, in)
			}
		}

		parts := make([][]uint64, p)
		aa := c.AllToAll(parts)
		for src, in := range aa {
			if len(in) != 0 {
				t.Errorf("alltoall from %d = %v", src, in)
			}
		}

		sc := c.Scatter(0, make([][]uint64, p))
		if len(sc) != 0 {
			t.Errorf("scatter = %v", sc)
		}

		if r := c.AllReduce(nil, OpSum); len(r) != 0 {
			t.Errorf("allreduce = %v", r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceEmptyVector(t *testing.T) {
	_, err := Run(3, func(c *Comm) {
		r := c.Reduce(0, []uint64{}, OpSum)
		if len(r) != 0 {
			t.Errorf("reduce of empty vectors = %v", r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHRelationHelpers(t *testing.T) {
	st, err := Run(2, func(c *Comm) {
		c.Send(1-c.Rank(), []uint64{1, 2, 3})
		c.Sync()
		c.Send(1-c.Rank(), []uint64{4})
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.MaxHRelation(); got != 3 {
		t.Errorf("MaxHRelation = %d, want 3", got)
	}
	if st.CommVolume != 4 || st.Supersteps != 2 {
		t.Errorf("volume %d over %d supersteps, want 4 over 2", st.CommVolume, st.Supersteps)
	}
	if empty := (&Stats{}); empty.MaxHRelation() != 0 {
		t.Error("empty stats h-relation helper nonzero")
	}
}
