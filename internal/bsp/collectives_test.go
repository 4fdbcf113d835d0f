package bsp

import (
	"testing"
)

func seq(n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i * 3)
	}
	return xs
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBroadcastSmall(t *testing.T) {
	const p = 4
	payload := []uint64{7, 8, 9} // < 2p: direct strategy
	_, err := Run(p, func(c *Comm) {
		var in []uint64
		if c.Rank() == 1 {
			in = payload
		}
		got := c.Broadcast(1, in)
		if !equalU64(got, payload) {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastLargeTwoPhase(t *testing.T) {
	const p = 4
	payload := seq(1000) // >= 2p: scatter+allgather strategy
	_, err := Run(p, func(c *Comm) {
		var in []uint64
		if c.Rank() == 0 {
			in = payload
		}
		got := c.Broadcast(0, in)
		if !equalU64(got, payload) {
			t.Errorf("rank %d: wrong payload (len %d)", c.Rank(), len(got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastVolumeScalable(t *testing.T) {
	// The two-phase broadcast must avoid the naive p*k volume.
	const p, k = 8, 8000
	payload := seq(k)
	st, err := Run(p, func(c *Comm) {
		var in []uint64
		if c.Rank() == 0 {
			in = payload
		}
		c.Broadcast(0, in)
	})
	if err != nil {
		t.Fatal(err)
	}
	naive := uint64(p * k)
	if st.CommVolume >= naive {
		t.Errorf("broadcast volume %d not below naive %d", st.CommVolume, naive)
	}
	// Should be about 2k + O(p).
	if st.CommVolume > uint64(3*k) {
		t.Errorf("broadcast volume %d too large (want ~%d)", st.CommVolume, 2*k)
	}
}

func TestBroadcastEmpty(t *testing.T) {
	_, err := Run(3, func(c *Comm) {
		got := c.Broadcast(0, nil)
		if len(got) != 0 {
			t.Errorf("rank %d: got %v for empty broadcast", c.Rank(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastSingleProc(t *testing.T) {
	_, err := Run(1, func(c *Comm) {
		got := c.Broadcast(0, []uint64{5})
		if !equalU64(got, []uint64{5}) {
			t.Errorf("got %v", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) {
		parts := c.Gather(2, []uint64{uint64(c.Rank()), uint64(c.Rank() * 10)})
		if c.Rank() != 2 {
			if parts != nil {
				t.Errorf("non-root %d got %v", c.Rank(), parts)
			}
			return
		}
		for src := 0; src < p; src++ {
			want := []uint64{uint64(src), uint64(src * 10)}
			if !equalU64(parts[src], want) {
				t.Errorf("root: parts[%d] = %v, want %v", src, parts[src], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		parts := c.AllGather([]uint64{uint64(c.Rank() + 100)})
		for src := 0; src < p; src++ {
			if len(parts[src]) != 1 || parts[src][0] != uint64(src+100) {
				t.Errorf("rank %d: parts[%d] = %v", c.Rank(), src, parts[src])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		var parts [][]uint64
		if c.Rank() == 0 {
			parts = make([][]uint64, p)
			for i := range parts {
				parts[i] = []uint64{uint64(i * i)}
			}
		}
		mine := c.Scatter(0, parts)
		if len(mine) != 1 || mine[0] != uint64(c.Rank()*c.Rank()) {
			t.Errorf("rank %d scattered %v", c.Rank(), mine)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	const p = 3
	_, err := Run(p, func(c *Comm) {
		parts := make([][]uint64, p)
		for dst := 0; dst < p; dst++ {
			parts[dst] = []uint64{uint64(c.Rank()*10 + dst)}
		}
		got := c.AllToAll(parts)
		for src := 0; src < p; src++ {
			want := uint64(src*10 + c.Rank())
			if len(got[src]) != 1 || got[src][0] != want {
				t.Errorf("rank %d: from %d got %v, want [%d]", c.Rank(), src, got[src], want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	const p = 4
	_, err := Run(p, func(c *Comm) {
		out := c.Reduce(0, []uint64{uint64(c.Rank()), 1}, OpSum)
		if c.Rank() == 0 {
			if !equalU64(out, []uint64{6, 4}) {
				t.Errorf("reduce = %v, want [6 4]", out)
			}
		} else if out != nil {
			t.Errorf("non-root got %v", out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMinMax(t *testing.T) {
	const p = 5
	_, err := Run(p, func(c *Comm) {
		// Copy the first result: a second AllReduce reuses its scratch.
		mn := append([]uint64(nil), c.AllReduce([]uint64{uint64(c.Rank() + 3)}, OpMin)...)
		mx := c.AllReduce([]uint64{uint64(c.Rank() + 3)}, OpMax)
		if mn[0] != 3 {
			t.Errorf("rank %d: min = %d", c.Rank(), mn[0])
		}
		if mx[0] != 7 {
			t.Errorf("rank %d: max = %d", c.Rank(), mx[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesCompose(t *testing.T) {
	// A mini pipeline: all-reduce a sum, then broadcast a derived array,
	// then gather results. Checks that consecutive collectives don't
	// interfere.
	const p = 4
	_, err := Run(p, func(c *Comm) {
		total := c.AllReduce([]uint64{1}, OpSum)[0]
		if total != p {
			t.Errorf("total = %d", total)
		}
		arr := c.Broadcast(0, seq(int(total)*4))
		if len(arr) != p*4 {
			t.Errorf("arr len = %d", len(arr))
		}
		parts := c.Gather(0, []uint64{arr[c.Rank()]})
		if c.Rank() == 0 {
			for src := 0; src < p; src++ {
				if parts[src][0] != uint64(src*3) {
					t.Errorf("parts[%d] = %v", src, parts[src])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveCosts pins the exact superstep count and ledger volume of
// one Broadcast and one AllReduce across machine sizes and payloads on
// both sides of the broadcast's strategy switch, and checks every rank's
// result.
func TestCollectiveCosts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		for _, k := range []int{0, 1, 2*p - 1, 2 * p, 4096} {
			root := p - 1
			payload := seq(k)

			// Broadcast: free at p = 1; direct in one superstep of
			// [k | payload] to every rank when k < 2p or p = 2; else the
			// root scatters [k | chunk] and the chunks are all-gathered.
			var wantSS int
			var wantVol uint64
			switch {
			case p == 1:
			case k < 2*p || p == 2:
				wantSS, wantVol = 1, uint64(p*(k+1))
			default:
				maxChunk := 0
				for r := 0; r < p; r++ {
					maxChunk = max(maxChunk, (r+1)*k/p-r*k/p)
				}
				wantSS, wantVol = 2, uint64(k+p+max(k, p*maxChunk))
			}
			st, err := Run(p, func(c *Comm) {
				var in []uint64
				if c.Rank() == root {
					in = payload
				}
				if got := c.Broadcast(root, in); !equalU64(got, payload) {
					t.Errorf("p=%d k=%d: Broadcast at rank %d: len %d, want the root's %d words", p, k, c.Rank(), len(got), k)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Supersteps != wantSS || st.CommVolume != wantVol {
				t.Errorf("p=%d k=%d: Broadcast took ss=%d vol=%d, want ss=%d vol=%d", p, k, st.Supersteps, st.CommVolume, wantSS, wantVol)
			}

			// AllReduce: one superstep in which every rank sends its k
			// words to every rank.
			want := make([]uint64, k)
			for r := 0; r < p; r++ {
				for i := range want {
					want[i] += uint64(r*k + i)
				}
			}
			st, err = Run(p, func(c *Comm) {
				vec := make([]uint64, k)
				for i := range vec {
					vec[i] = uint64(c.Rank()*k + i)
				}
				if got := c.AllReduce(vec, OpSum); !equalU64(got, want) {
					t.Errorf("p=%d k=%d: AllReduce at rank %d differs from the sum", p, k, c.Rank())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Supersteps != 1 || st.CommVolume != uint64(p*k) {
				t.Errorf("p=%d k=%d: AllReduce took ss=%d vol=%d, want ss=1 vol=%d", p, k, st.Supersteps, st.CommVolume, p*k)
			}
		}
	}
}

// TestAllReduceNonCommutative checks that every rank folds the vectors in
// rank order, so an order-sensitive op gives the same words everywhere.
func TestAllReduceNonCommutative(t *testing.T) {
	op := func(a, b uint64) uint64 { return a*31 + b }
	for _, p := range []int{1, 2, 3, 5} {
		want := []uint64{100, 200}
		for r := 1; r < p; r++ {
			want[0] = op(want[0], uint64(100+r))
			want[1] = op(want[1], uint64(200+r))
		}
		_, err := Run(p, func(c *Comm) {
			r := uint64(c.Rank())
			if got := c.AllReduce([]uint64{100 + r, 200 + r}, op); !equalU64(got, want) {
				t.Errorf("p=%d rank %d: AllReduce = %v, want the rank-order fold %v", p, c.Rank(), got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
