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
	pl.Version = sg.Version
	pl.P = p

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

// planKey identifies one plan cache entry: plans are per (graph name,
// machine size); the slot inside carries the version.
type planKey struct {
	name string
	p    int
}

// planSlot is one lazily-built plan. The sync.Once makes concurrent
// first queries of a (version, p) pair build exactly once — followers
// block on the build instead of duplicating it.
type planSlot struct {
	version uint64
	once    sync.Once
	plan    *graph.Plan
	err     error
}

// planFor returns the cached plan for (sg, p), building it on first use.
// A slot whose version differs from sg's (the graph was replaced and the
// eviction in Put already dropped the old slot, or this caller raced a
// replacement) is superseded under the lock, so queries against the new
// snapshot never see the old snapshot's facts. Returns (nil, nil) when
// sg is no longer the current registration — the caller degrades to the
// cold path rather than planning for a dead snapshot.
func (r *Registry) planFor(sg *StoredGraph, p int) (*graph.Plan, error) {
	key := planKey{name: sg.Name, p: p}
	r.mu.Lock()
	if r.plans == nil {
		r.plans = make(map[planKey]*planSlot)
	}
	slot := r.plans[key]
	if slot == nil || slot.version != sg.Version {
		if cur, ok := r.graphs[sg.Name]; !ok || cur.Version != sg.Version {
			r.mu.Unlock()
			return nil, nil
		}
		slot = &planSlot{version: sg.Version}
		r.plans[key] = slot
	}
	r.mu.Unlock()
	slot.once.Do(func() {
		slot.plan, slot.err = buildPlan(sg, p)
	})
	return slot.plan, slot.err
}

// evictPlansLocked drops every cached plan of name — all machine sizes.
// Callers hold r.mu. Registration replacement and deletion both route
// here, so a re-registered graph can never serve a stale plan.
func (r *Registry) evictPlansLocked(name string) {
	for k := range r.plans {
		if k.name == name {
			delete(r.plans, k)
		}
	}
}

// PlanCount returns the number of cached plans across all graphs and
// machine sizes — an observability gauge for /v1/stats.
func (r *Registry) PlanCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.plans)
}

// planFor resolves the plan a kernel execution should use: nil when
// plans are disabled or the build failed (both degrade the query to the
// full cold path — plans are an optimization, never a correctness
// dependency).
func (e *Engine) planFor(sg *StoredGraph, p int) *graph.Plan {
	if e.cfg.DisablePlans {
		return nil
	}
	pl, err := e.reg.planFor(sg, p)
	if err != nil {
		return nil
	}
	return pl
}
