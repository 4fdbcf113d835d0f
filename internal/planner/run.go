package planner

import (
	"context"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/graph"
)

// Shape is where a run executes:
//
//	Shape{P: p}        a pooled in-process machine of p processors
//	Shape{Machine: m}  the caller-supplied machine (a distributed run)
type Shape struct {
	P int
	// Machine: every process of a TCP machine runs with the same
	// arguments, each with its own plan of the same snapshot; the one
	// hosting global rank 0 gets the outcome, the others nil. Distributed
	// runs never degrade: a rank-local checkpoint sees only its own trials.
	Machine *bsp.Machine
	// Plan, when non-nil, is the snapshot-resident plan for this graph and
	// P: the kernels consume its precomputed facts instead of running the
	// matching cold collectives, recording each skip on the BSP ledger.
	Plan *graph.Plan
	// Faults, when enabled, hooks fault injection into the pooled machine.
	Faults *faults.Registry
}

// RunBlocks is the one way a body runs over an edge array: SPMD in shape
// sh, rank r reading block r of edges in place (dist.BlockRange) — the
// paper's born-distributed edge array, zero copies; bodies only read
// their block. The same call serves an in-process machine and each
// worker process of a TCP machine (every process holds the full array;
// each rank touches only its block). ctx cancels the run: the machine
// unwinds within one superstep and the error matches bsp.ErrCancelled.
//
// A pooled machine carries sh.Faults' hook for this run only and returns
// to the pool only after a clean run: a failed or cancelled run may
// leave mailboxes mid-superstep, so its machine is dropped.
func RunBlocks(ctx context.Context, sh Shape, edges []graph.Edge, body func(c *bsp.Comm, local []graph.Edge)) (*bsp.Stats, error) {
	m := sh.Machine
	if m == nil {
		var err error
		if m, err = bsp.AcquireMachine(sh.P); err != nil {
			return nil, err
		}
		m.SetFaultHook(sh.Faults.Hook(m))
	}
	st, err := m.RunCtx(ctx, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(edges), c.Size(), c.Rank())
		body(c, edges[lo:hi])
	})
	if sh.Machine == nil {
		// Detach the hook either way, so a dropped machine does not pin
		// the fault registry until the GC finds it.
		m.SetFaultHook(nil)
		if err == nil {
			bsp.ReleaseMachine(m)
		}
	}
	return st, err
}

// Exec runs k over an n-vertex edge array in shape sh — the one call
// site of Kernel.Run, shared by the library facade, serving, failover,
// the shard workers and calibration. k runs SPMD through RunBlocks;
// Exec returns rank 0's outcome (nil on a process hosting no rank 0) and
// the machine's ledger. cp, if any, is what k.NewCheckpoint returned for
// this run.
func (k *Kernel) Exec(ctx context.Context, sh Shape, n int, edges []graph.Edge, par RunParams, cp Checkpoint) (*Outcome, *bsp.Stats, error) {
	var out *Outcome
	st, err := RunBlocks(ctx, sh, edges, func(c *bsp.Comm, local []graph.Edge) {
		if o := k.Run(c, n, local, par, sh.Plan, cp); c.Rank() == 0 {
			out = o
		}
	})
	return out, st, err
}
