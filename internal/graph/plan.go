package graph

import "sync"

// Plan holds the snapshot-invariant facts of a graph that every query
// otherwise recomputes with per-query collectives: the replicated edge
// view, the total weight, and the exact connectivity labelling.
// The serving layer builds one Plan per (snapshot version, machine size)
// at first query and threads it into the kernels through their Options,
// turning the warm query path communication-free where the facts allow.
// Every fact but the cost table depends on the snapshot alone, so the
// plans of one snapshot share them.
//
// Accounting honesty: a kernel that consumes a plan fact instead of
// running the cold collective must call bsp.Comm.SkipComm with the
// matching CollectiveCost, so the run's Stats report the avoided
// supersteps and words explicitly rather than silently shrinking. The
// cost table is *measured* (the plan builder runs the real cold
// collectives once and reads their Stats), so it tracks the collective
// implementations instead of hand-derived formulas.
type Plan struct {
	N int // vertex count of the snapshot

	// Edges is the replicated edge view — what AllGatherEdges would
	// reassemble on every rank. It aliases the snapshot's frozen array
	// (rank-order reassembly reproduces the snapshot order exactly), so
	// holding a plan costs no edge copies. Read-only.
	Edges []Edge

	// TotalWeight is the global edge weight sum.
	TotalWeight uint64

	// Connected, Labels, and Components are the exact connectivity result.
	// Labels are dense in first-occurrence order (vertex 0 → label 0),
	// matching both graph.ConnectedComponents and cc.Parallel's canonical
	// final labelling, so a warm answer is bit-identical to a cold one.
	// Labels is the snapshot's one labelling. Read-only.
	Connected  bool
	Labels     []int32
	Components int

	// Cut is the exact minimum cut's certificate outcome on the snapshot,
	// shared by its plans at every machine size.
	Cut *CutFact

	// Measured cold-path costs of the collectives a warm query skips.
	CCCost     CollectiveCost // connectivity labelling (cc.Parallel), skipped by warm cc runs
	GatherCost CollectiveCost // edge replication (AllGatherEdges), skipped by warm mincut runs
	WeightCost CollectiveCost // total-weight AllReduce
}

// CollectiveCost records what a skipped collective would have cost:
// its superstep count and communication volume in words.
type CollectiveCost struct {
	Collectives int
	Words       uint64
}

// CutFact is the outcome of the exact minimum cut's certificate on one
// snapshot: the min-degree cut (its value and side) and whether the
// certificate proved no cut lighter. It depends on the edges alone, so
// it is a fact of the snapshot rather than of a plan: the first warm
// minimum cut on a snapshot version computes it, at whatever machine
// size, and every later one reads it.
type CutFact struct {
	once   sync.Once
	proven bool
	value  uint64
	side   []bool
}

// Do returns the fact, calling compute to establish it on the first call
// only; a concurrent first caller waits for that call. side is shared
// and read-only.
func (f *CutFact) Do(compute func() (proven bool, value uint64, side []bool)) (proven bool, value uint64, side []bool) {
	f.once.Do(func() { f.proven, f.value, f.side = compute() })
	return f.proven, f.value, f.side
}

// Matches reports whether the plan describes an n-vertex input — the
// kernels' guard against a stale or mismatched plan being threaded in.
func (pl *Plan) Matches(n int) bool { return pl != nil && pl.N == n }

// PlanFacts returns a Plan holding the snapshot-invariant facts of s and
// a zero cost table (the caller measures costs at its machine size). The
// connectivity labelling is computed sequentially on the first call only
// and shared by every later plan; it reproduces the distributed kernels'
// result exactly: labels come from union-find in first-occurrence order.
func (s *Snapshot) PlanFacts() *Plan {
	s.ccOnce.Do(func() { s.labels, s.components = s.Graph().ConnectedComponents() })
	return &Plan{
		N:           s.n,
		Edges:       s.edges,
		TotalWeight: s.totalWeight,
		Connected:   s.components <= 1,
		Labels:      s.labels,
		Components:  s.components,
		Cut:         &s.cut,
	}
}
