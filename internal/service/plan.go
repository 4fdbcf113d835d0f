package service

import (
	"context"
	"sync"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/rng"
)

// buildPlan computes the snapshot-resident plan for one (graph, machine
// size): the sequential facts from PlanFacts, plus a *measured* cost
// table — the builder runs each cold collective a warm query will skip
// (connectivity labelling, edge replication, total weight) once on a
// real p-processor machine and reads its Stats, so SkipComm later
// reports exactly what the implementation would have charged, not a
// hand-derived formula. The build is pure overhead on the first query of
// a (version, p) pair and is amortized by every query after it. The
// minimum cut's certificate outcome is not built here: PlanFacts points
// every plan of a version at the snapshot's one CutFact, which the first
// warm mincut at any p fills.
func buildPlan(sg *StoredGraph, p int) (*graph.Plan, error) {
	pl := sg.Snap.PlanFacts()

	edges := sg.Snap.Edges()
	n := sg.Snap.N()
	segments := []struct {
		cost *graph.CollectiveCost
		body func(c *bsp.Comm, local []graph.Edge)
	}{
		{&pl.CCCost, func(c *bsp.Comm, local []graph.Edge) {
			// The seed only perturbs the sampling rounds, so seed 1 is a
			// faithful cost proxy for any query seed.
			cc.Parallel(c, n, local, rng.New(1, uint32(c.Rank()), 0), cc.Options{})
		}},
		{&pl.GatherCost, func(c *bsp.Comm, local []graph.Edge) {
			dist.AllGatherEdges(c, local)
		}},
		{&pl.WeightCost, func(c *bsp.Comm, local []graph.Edge) {
			dist.TotalWeight(c, local)
		}},
	}
	for _, seg := range segments {
		st, err := planner.RunBlocks(context.TODO(), planner.Shape{P: p}, edges, seg.body)
		if err != nil {
			return nil, err
		}
		*seg.cost = graph.CollectiveCost{Collectives: st.Supersteps, Words: st.CommVolume}
	}
	return pl, nil
}

// planSlot is one lazily-built plan. The sync.Once makes concurrent
// first queries of a (version, p) pair build exactly once — followers
// block on the build instead of duplicating it.
type planSlot struct {
	once sync.Once
	plan *graph.Plan // nil when the build failed
}

// plan returns sg's plan at machine size p, building it on first use:
// nil when the build failed, which degrades the query to the full cold
// path — plans are an optimization, never a correctness dependency. A
// query that raced a replacement of its graph still holds sg and runs
// on this version's plan, which goes when the last such query does.
func (sg *StoredGraph) plan(p int) *graph.Plan {
	sg.mu.Lock()
	slot := sg.plans[p]
	if slot == nil {
		if sg.plans == nil {
			sg.plans = make(map[int]*planSlot)
		}
		slot = new(planSlot)
		sg.plans[p] = slot
	}
	sg.mu.Unlock()
	slot.once.Do(func() {
		if pl, err := buildPlan(sg, p); err == nil {
			slot.plan = pl
		}
	})
	return slot.plan
}

// PlanCount returns the number of plans across the current registrations
// and their machine sizes — an observability gauge for /v1/stats.
func (r *Registry) PlanCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, sg := range r.graphs {
		sg.mu.Lock()
		n += len(sg.plans)
		sg.mu.Unlock()
	}
	return n
}

// planFor resolves the plan a kernel execution should use: nil when
// plans are disabled or the build failed.
func (e *Engine) planFor(sg *StoredGraph, p int) *graph.Plan {
	if e.cfg.DisablePlans {
		return nil
	}
	return sg.plan(p)
}
