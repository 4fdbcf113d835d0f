package kernels

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/mincut"
	"repro/internal/rng"
)

// onFabrics runs body on the in-process fabric at p ∈ {1, 2, 3, 4, 8} and
// over loopback TCP at p ∈ {2, 4}, and hands each run's rank-0 Stats and
// result word to check.
func onFabrics(t *testing.T, epoch uint64, body func(c *bsp.Comm) uint64, check func(where string, st *bsp.Stats, res uint64)) {
	t.Helper()
	for _, p := range []int{1, 2, 3, 4, 8} {
		var res uint64
		st, err := bsp.Run(p, func(c *bsp.Comm) {
			if r := body(c); c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			t.Fatalf("local p=%d: %v", p, err)
		}
		check(fmt.Sprintf("local p=%d", p), st, res)
	}
	if testing.Short() {
		return
	}
	for i, p := range []int{2, 4} {
		st, res := runKernelOverTCP(t, p, epoch+uint64(i), body)
		check(fmt.Sprintf("tcp p=%d", p), st, res)
	}
}

// TestCCAnswerStaysAtRoot: an exact-round cc.Parallel is the m AllReduce
// and the forest gather, 2 supersteps at every p and on both fabrics, and
// only rank 0 holds the labelling — the other ranks return nil Labels.
func TestCCAnswerStaysAtRoot(t *testing.T) {
	g := er400G
	want := cc.Sequential(g)
	onFabrics(t, 9700, func(c *bsp.Comm) uint64 {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		r := cc.Parallel(c, g.N, g.Edges[lo:hi], rng.New(21, uint32(c.Rank()), 0), cc.Options{})
		if c.Rank() != 0 {
			if r.Labels != nil || r.Iterations != 1 {
				t.Errorf("p=%d rank %d: %d labels, %d iterations; want nil labels, 1 iteration", c.Size(), c.Rank(), len(r.Labels), r.Iterations)
			}
			return 0
		}
		return hashLabels(r.Labels) ^ uint64(r.Count)
	}, func(where string, st *bsp.Stats, res uint64) {
		if st.Supersteps != 2 {
			t.Errorf("%s: %d supersteps, want 2", where, st.Supersteps)
		}
		if res != hashLabels(want.Labels)^uint64(want.Count) {
			t.Errorf("%s: rank 0's labelling differs from Sequential's", where)
		}
	})
}

// TestCutTrialsEndAtRoot: on a planted cut the certificate fails and the
// trials run; under the static schedule the run is the edge gather and
// one superstep in which every rank but the root sends the root its best.
// The value and side are those the run gave when it ended in an argmin
// AllGather and a side Broadcast.
func TestCutTrialsEndAtRoot(t *testing.T) {
	g := gen.PlantedCut(64, 8, 2, 3)
	const wantVal, wantSide = 2, 0xb4e7740fa36c7565
	onFabrics(t, 9710, func(c *bsp.Comm) uint64 {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		r := mincut.Parallel(c, g.N, g.Edges[lo:hi], rng.New(23, uint32(c.Rank()), 0), mincut.Options{
			SuccessProb: 0.9, MaxTrials: 4, Schedule: mincut.SchedStatic,
		})
		if r.Trials != 4 {
			t.Errorf("p=%d rank %d: %d trials, want 4", c.Size(), c.Rank(), r.Trials)
		}
		if c.Rank() != 0 {
			if r.Side != nil {
				t.Errorf("p=%d rank %d returned a side", c.Size(), c.Rank())
			}
			return 0
		}
		if r.Value != wantVal {
			t.Errorf("p=%d: value %d, want %d", c.Size(), r.Value, wantVal)
		}
		h := fnv.New64a()
		for _, s := range r.Side {
			if s {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		return h.Sum64()
	}, func(where string, st *bsp.Stats, side uint64) {
		if st.Supersteps != 2 {
			t.Errorf("%s: %d supersteps, want 2 (gather, then the send to the root)", where, st.Supersteps)
		}
		if side != wantSide {
			t.Errorf("%s: side hash %#x, want %#x", where, side, uint64(wantSide))
		}
	})
}
