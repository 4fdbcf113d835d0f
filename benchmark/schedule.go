package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"repro/internal/graph"
)

const (
	algCC        = "cc"
	algApproxCut = "approxcut"
	algMinCut    = "mincut"
)

type opKind uint8

const (
	opQuery   opKind = iota
	opUpload         // re-upload of an existing name: version bump
	opInvalid        // deliberately bad request, expected 4xx
)

// op is one scheduled request. The program under test sees only what
// an op renders to (a query body or an edge-list upload).
type op struct {
	ID      int
	Kind    opKind
	Graph   int    // index into the workload's graph list
	Variant int    // upload: which content variant of the graph
	Alg     string // query: cc | approxcut | mincut
	Seed    uint64 // query seed; part of the cache key
	Status  int    // HTTP status the oracle expects
}

// mix pins down every random choice of an HTTP workload's schedule.
type mix struct {
	Graphs    int
	ZipfS     float64
	CutGraphs int     // mincut draws only from graphs [0, CutGraphs): the ones small enough for a Stoer–Wagner oracle
	CC        float64 // algorithm shares of queries; the rest is mincut
	ApproxCut float64
	Unique    float64 // share of queries with a never-repeated seed (cache misses)
	WarmSeeds int     // repeated queries draw their seed from 1..WarmSeeds
	Upload    float64 // share of ops that re-upload an existing graph
	Invalid   float64 // share of ops that are invalid requests
	Variants  int     // content variants per graph that uploads cycle through
	MaxTrials int     // mincut trial cap
	NoCache   bool    // every query bypasses the result cache
}

// generator emits the schedule in order. It is stateful only so that a
// re-upload always carries content different from the scheduled upload
// before it; the sequence is a pure function of (mix, seed) no matter
// how many clients pull from it.
type generator struct {
	mx      mix
	graphs  []float64 // Zipf CDF over all graphs
	cuts    []float64 // Zipf CDF over the mincut-eligible prefix
	mu      sync.Mutex
	r       rnd
	next    int
	uploads []int // re-uploads issued so far, per graph
}

func newGenerator(mx mix, seed uint64) *generator {
	return &generator{
		mx:      mx,
		graphs:  zipfCDF(mx.Graphs, mx.ZipfS),
		cuts:    zipfCDF(mx.CutGraphs, mx.ZipfS),
		r:       rnd{s: seed*0x9e3779b97f4a7c15 + 0x5851f42d4c957f2d},
		uploads: make([]int, mx.Graphs),
	}
}

// uniqueSeedBase keeps never-repeated seeds clear of the warm pool.
const uniqueSeedBase = 1 << 20

func (g *generator) nextOp() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	o := op{ID: g.next, Status: 200}
	g.next++
	kind, graphU, algU, seedU := g.r.float(), g.r.float(), g.r.float(), g.r.next()
	switch {
	case kind < g.mx.Invalid:
		o.Kind = opInvalid
		o.Graph = pick(g.graphs, graphU)
		if seedU&1 == 0 {
			o.Alg, o.Status = "pagerank", 400 // unknown algorithm on a real graph
		} else {
			o.Alg, o.Graph, o.Status = algCC, -1, 404 // real algorithm on an unknown graph
		}
		return o
	case kind < g.mx.Invalid+g.mx.Upload:
		o.Kind = opUpload
		o.Graph = pick(g.graphs, graphU)
		g.uploads[o.Graph]++
		o.Variant = g.uploads[o.Graph] % g.mx.Variants
		o.Status = 201
		return o
	}
	switch {
	case algU < g.mx.CC:
		o.Alg = algCC
	case algU < g.mx.CC+g.mx.ApproxCut:
		o.Alg = algApproxCut
	default:
		o.Alg = algMinCut
	}
	if o.Alg == algMinCut {
		o.Graph = pick(g.cuts, graphU)
	} else {
		o.Graph = pick(g.graphs, graphU)
	}
	if float64(seedU>>11)/(1<<53) < g.mx.Unique {
		o.Seed = uniqueSeedBase + uint64(o.ID)
	} else {
		o.Seed = 1 + (seedU&0x7ff)%uint64(g.mx.WarmSeeds)
	}
	return o
}

// fingerprintOps is how many leading ops a schedule fingerprint covers.
const fingerprintOps = 4096

// scheduleFingerprint hashes everything the program under test will be
// fed: the graphs (every variant) and the first fingerprintOps ops.
func scheduleFingerprint(name string, seed uint64, graphs []*graph.Graph, mx *mix) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/", name, seed)
	for _, g := range graphs {
		hashGraph(h, g)
	}
	if mx != nil {
		gen := newGenerator(*mx, seed)
		for i := 0; i < fingerprintOps; i++ {
			o := gen.nextOp()
			fmt.Fprintf(h, "%d,%d,%d,%s,%d;", o.Kind, o.Graph, o.Variant, o.Alg, o.Seed)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func hashGraph(h hash.Hash64, g *graph.Graph) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(g.N))
	binary.LittleEndian.PutUint64(b[8:], uint64(len(g.Edges)))
	h.Write(b[:])
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(b[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:8], uint32(e.V))
		binary.LittleEndian.PutUint64(b[8:], e.W)
		h.Write(b[:])
	}
}

// barabasiAlbert is the benchmark's own preferential-attachment
// generator (seed clique on k+1 vertices, then every vertex attaches to
// k distinct earlier ones chosen proportionally to degree). It exists
// because gen.BarabasiAlbert is not a function of its seed: it adds each
// vertex's edges in map iteration order, so the edge order — and through
// the endpoint list every later draw — changes from run to run, and the
// contract here is same seed, same input.
func barabasiAlbert(n, k int, seed uint64) *graph.Graph {
	r := rnd{s: seed}
	g := graph.New(n)
	// Every edge appends both endpoints, so a uniform element of this
	// list is a vertex drawn proportionally to its degree.
	endpoints := make([]int32, 0, 2*n*k)
	attach := func(u, v int32) {
		g.AddEdge(u, v, 1)
		endpoints = append(endpoints, u, v)
	}
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			attach(int32(i), int32(j))
		}
	}
	chosenBy := make([]int32, n) // chosenBy[t] == v: t is already a target of v
	targets := make([]int32, 0, k)
	for v := int32(k + 1); int(v) < n; v++ {
		targets = targets[:0]
		for len(targets) < k {
			if t := endpoints[r.next()%uint64(len(endpoints))]; chosenBy[t] != v {
				chosenBy[t] = v
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			attach(v, t)
		}
	}
	return g
}
