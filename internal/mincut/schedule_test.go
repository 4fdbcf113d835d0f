package mincut

import (
	"testing"

	"repro/internal/gen"
)

// The dynamic scheduler must be invisible in the results: for a fixed
// seed the cut value and side are bit-identical whichever schedule runs
// the trials, and whatever p is, because trial i's stream derives from i
// alone and ties break on the trial index. This is the property that lets the serving layer cache and
// coalesce by (graph, seed, params) while sizing machines freely.
func TestScheduleIndependence(t *testing.T) {
	g := gen.ErdosRenyiM(64, 256, 3, gen.Config{MaxWeight: 4})
	if !g.IsConnected() {
		t.Fatal("test graph must be connected")
	}
	const seed = 7
	opts := func(s Schedule) Options {
		return Options{SuccessProb: 0.9, MaxTrials: 32, Schedule: s}
	}
	ref := parallelCut(t, g, 1, seed, opts(SchedStatic))
	if !ref.Check(g) {
		t.Fatal("reference partition inconsistent")
	}
	for _, p := range []int{1, 4, 16} {
		for _, sched := range []Schedule{SchedStatic, SchedDynamic} {
			got := parallelCut(t, g, p, seed, opts(sched))
			if got.Value != ref.Value {
				t.Errorf("p=%d sched=%d: value %d, want %d", p, sched, got.Value, ref.Value)
			}
			if len(got.Side) != len(ref.Side) {
				t.Fatalf("p=%d sched=%d: side length %d, want %d", p, sched, len(got.Side), len(ref.Side))
			}
			for v := range got.Side {
				if got.Side[v] != ref.Side[v] {
					t.Errorf("p=%d sched=%d: side differs at vertex %d", p, sched, v)
					break
				}
			}
		}
	}
}

// assignChunks replicates one deterministic assignment on every rank;
// round 0 (no cost data) must degenerate to round-robin, and skewed
// costs must push the whole batch onto the cheapest ranks.
func TestAssignChunks(t *testing.T) {
	virtual := make([]uint64, 4)

	// Round 0: zero costs → round-robin, chunk j to rank j.
	for rank := 0; rank < 4; rank++ {
		mine := assignChunks(make([]uint64, 4), virtual, rank, 0, 4)
		if len(mine) != 1 || mine[0] != rank {
			t.Errorf("round 0 rank %d: chunks %v, want [%d]", rank, mine, rank)
		}
	}

	// Rank 3 is far behind (a straggler): with 4 chunks already run and
	// an average chunk cost of 25, ranks 0-2 (cost 10 each) must absorb
	// the next batch while rank 3 (cost 70) gets nothing.
	costs := []uint64{10, 10, 10, 70}
	var got []int
	for rank := 0; rank < 4; rank++ {
		mine := assignChunks(costs, virtual, rank, 4, 4)
		if rank == 3 && len(mine) != 0 {
			t.Errorf("straggler rank 3 assigned %v, want none", mine)
		}
		got = append(got, mine...)
	}
	if len(got) != 4 {
		t.Errorf("assigned %d chunks total, want 4 (each exactly once)", len(got))
	}
	seen := map[int]bool{}
	for _, ci := range got {
		if ci < 4 || ci >= 8 || seen[ci] {
			t.Errorf("bad or duplicate chunk %d in %v", ci, got)
		}
		seen[ci] = true
	}
}
