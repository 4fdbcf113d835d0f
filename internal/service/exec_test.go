package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/planner"
)

func TestSideVertices(t *testing.T) {
	cases := []struct {
		name string
		side []bool
		want []int32
	}{
		{"empty", nil, []int32{}},
		{"all false", []bool{false, false, false}, []int32{}},
		{"minority true kept", []bool{true, false, false, true}, []int32{0, 3}},
		{"majority true flipped", []bool{true, true, true, false}, []int32{3}},
		{"tie at n/2 keeps the true shore", []bool{true, false, true, false}, []int32{0, 2}},
		{"all true flips to empty", []bool{true, true}, []int32{}},
	}
	for _, c := range cases {
		got := sideVertices(c.side)
		if len(got) != len(c.want) {
			t.Errorf("%s: sideVertices(%v) = %v, want %v", c.name, c.side, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: sideVertices(%v) = %v, want %v", c.name, c.side, got, c.want)
				break
			}
		}
	}
}

// A cancelled run may have left mailboxes mid-superstep: its machine must
// not go back to the pool the library facade shares. Rank 0's *Comm lives
// as long as its machine, so it names the machine a run was given.
func TestCancelledRunDropsItsMachine(t *testing.T) {
	const p = 7 // a size no other test in this package pools
	var rank0 *bsp.Comm
	var cancel context.CancelFunc
	spy := planner.Kernel{
		Name: "spy",
		Run: func(c *bsp.Comm, _ int, _ []graph.Edge, _ planner.RunParams, _ *graph.Plan, _ planner.Checkpoint) *planner.Outcome {
			if c.Rank() == 0 {
				rank0 = c
				if cancel != nil {
					cancel()
				}
			}
			for i := 0; cancel != nil || i < 2; i++ {
				c.Sync() // a cancelled machine unwinds here
			}
			return &planner.Outcome{}
		},
	}
	g := testGraph(16, 20)
	run := func(ctx context.Context) error {
		_, _, err := spy.Exec(ctx, planner.Shape{P: p}, g.N, g.Edges, planner.RunParams{}, nil)
		return err
	}

	ctx, stop := context.WithCancel(context.Background())
	cancel = stop
	if err := run(ctx); !errors.Is(err, bsp.ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	cancelled := rank0
	cancel = nil
	for i := 0; i < 20; i++ {
		if err := run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rank0 == cancelled {
			t.Fatalf("run %d was given the cancelled run's machine", i)
		}
	}
}
