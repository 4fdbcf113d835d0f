package kernels

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"testing"

	"repro/internal/approxcut"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/planner"
	"repro/internal/rng"
)

// acctCase is one fixed (algorithm, input, machine size) configuration
// whose BSP accounting is pinned: the kernels may get arbitrarily faster,
// but supersteps, per-superstep h-relations, and communication volume
// must not move by a single word unless a change means to move them (see
// acctGolden).
type acctCase struct {
	name string
	p    int
	run  func(c *bsp.Comm) uint64 // returns a result fingerprint from rank 0
}

// fingerprint renders the accounting of one run plus the rank-0 result
// word into a comparable string: supersteps, total volume, and an FNV-1a
// hash over the sorted per-superstep h-relations. The h-relations are
// hashed as a multiset, not a sequence. Every run's sequence is
// deterministic, but the goldens below were pinned as multisets, and a
// sequence hash would re-pin every row for no new information.
func fingerprint(st *bsp.Stats, result uint64) string {
	hs := append([]uint64(nil), st.HRelations...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	h := fnv.New64a()
	var b [8]byte
	for _, r := range hs {
		for i := 0; i < 8; i++ {
			b[i] = byte(r >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("ss=%d vol=%d hrel=%016x res=%d",
		st.Supersteps, st.CommVolume, h.Sum64(), result)
}

func hashLabels(labels []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range labels {
		for i := 0; i < 4; i++ {
			b[i] = byte(uint32(l) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashEdges(es []graph.Edge) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range es {
		k := uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
		for i := 0; i < 8; i++ {
			b[i] = byte(k >> (8 * i))
		}
		h.Write(b[:])
		for i := 0; i < 8; i++ {
			b[i] = byte(e.W >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// acctCases pins every algorithm at p ∈ {1, 2, 4, 8}; p = 2 is the
// fleet's shape and its own broadcast regime (see bsp's bcastDirect).
func acctCases() []acctCase {
	return acctCasesFor(1, 2, 4, 8)
}

// ws256G is the shape benchmark/'s mincut_batch solves: Watts–Strogatz
// n=256, k=12, β=0.3, unit weights — 92 trials at success 0.9, run in
// full at p ≤ 2 (the machine sizes the benchmark times).
var ws256G = gen.WattsStrogatz(256, 12, 0.3, 19, gen.Config{})

// er400G is the cc/er400 and lp/er400 input; CC solves it in one exact
// round at every p.
var er400G = gen.ErdosRenyiM(400, 2000, 7, gen.Config{MaxWeight: 5})

// mincutCase pins one exact-minimum-cut configuration (maxTrials 0 = the
// theory-derived count); its result word is the cut value.
func mincutCase(input string, g *graph.Graph, p, maxTrials int) acctCase {
	return acctCase{name: fmt.Sprintf("mincut/%s/p=%d", input, p), p: p, run: func(c *bsp.Comm) uint64 {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		st := rng.New(23, uint32(c.Rank()), 0)
		r := mincut.Parallel(c, g.N, g.Edges[lo:hi], st, mincut.Options{
			SuccessProb: 0.9, MaxTrials: maxTrials,
		})
		return r.Value
	}}
}

// acctCasesFor builds the pinned configurations at arbitrary machine
// sizes; the cross-transport tests reuse it at sizes that have no golden
// entry and instead compare two transports against each other.
func acctCasesFor(ps ...int) []acctCase {
	mcG := gen.ErdosRenyiM(96, 480, 11, gen.Config{MaxWeight: 4})
	plantedG := gen.PlantedCut(64, 8, 2, 3)
	sortG := gen.RMAT(10, 4096, 13, gen.Config{MaxWeight: 9})
	wsG := gen.WattsStrogatz(300, 6, 0.3, 17, gen.Config{})

	// approxCase pins one approximate-cut configuration; its result word
	// is Value<<8 | Iterations.
	approxCase := func(input string, g *graph.Graph, p int, pipelined bool) acctCase {
		variant := "early"
		if pipelined {
			variant = "pipelined"
		}
		return acctCase{name: fmt.Sprintf("approxcut/%s/%s/p=%d", input, variant, p), p: p, run: func(c *bsp.Comm) uint64 {
			lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
			st := rng.New(29, uint32(c.Rank()), 0)
			r := approxcut.Parallel(c, g.N, g.Edges[lo:hi], st, approxcut.Options{Pipelined: pipelined})
			return r.Value<<8 | uint64(r.Iterations)
		}}
	}

	var cases []acctCase
	for _, p := range ps {
		p := p
		cases = append(cases,
			acctCase{name: fmt.Sprintf("cc/er400/p=%d", p), p: p, run: func(c *bsp.Comm) uint64 {
				lo, hi := dist.BlockRange(len(er400G.Edges), c.Size(), c.Rank())
				st := rng.New(21, uint32(c.Rank()), 0)
				r := cc.Parallel(c, er400G.N, er400G.Edges[lo:hi], st, cc.Options{})
				return hashLabels(r.Labels) ^ uint64(r.Count)
			}},
			mincutCase("er96", mcG, p, 4),
			mincutCase("planted128", plantedG, p, 4),
			acctCase{name: fmt.Sprintf("samplesort/rmat10/p=%d", p), p: p, run: func(c *bsp.Comm) uint64 {
				lo, hi := dist.BlockRange(len(sortG.Edges), c.Size(), c.Rank())
				local := make([]graph.Edge, hi-lo)
				for i, e := range sortG.Edges[lo:hi] {
					local[i] = e.Normalize()
				}
				sorted := dist.SampleSortEdges(c, local)
				// Combine before hashing: the old local sort was unstable, so
				// only the merged run (not the order of equal-key parallel
				// edges) is pinned.
				run := combineSorted(append([]graph.Edge(nil), sorted...))
				return hashEdges(run) ^ uint64(len(run))
			}},
			acctCase{name: fmt.Sprintf("lp/er400/p=%d", p), p: p, run: func(c *bsp.Comm) uint64 {
				lo, hi := dist.BlockRange(len(er400G.Edges), c.Size(), c.Rank())
				r := cc.LabelPropagation(c, er400G.N, er400G.Edges[lo:hi])
				return hashLabels(r.Labels) ^ uint64(r.Count)
			}},
			approxCase("ws300", wsG, p, false),
			approxCase("ws300", wsG, p, true),
			approxCase("er96", mcG, p, false),
			approxCase("er96", mcG, p, true),
		)
		if p <= 2 {
			cases = append(cases, mincutCase("ws256", ws256G, p, 0))
		}
	}
	return cases
}

// acctGolden pins the accounting; regenerate (only when a change is
// *meant* to alter communication) with:
//
//	ACCT_PRINT=1 go test -run TestAccountingRegression ./internal/kernels/ -v
//
// The cc and mincut rows were regenerated once when cc.Parallel began
// gathering per-rank spanning forests instead of raw samples (mincut
// runs cc.Parallel as its connectivity check): every res is unchanged,
// every ss dropped (one AllReduce fewer per round) and every vol dropped
// (cc/er400/p=4 7665 → 2747). The cc rows moved once more when
// cc.Parallel began leaving after the labelling of a round in which every
// rank contributed its whole slice (p=4 ss 11 → 6, vol 2747 → 1923), res
// again unchanged and the mincut rows untouched. The approxcut rows
// (res = Value<<8 | Iterations) were generated at the commit before the
// per-trial-forest scan replaced its trials·n labelling and regenerated
// once after it: every res byte-identical, every ss and vol lower
// (approxcut/ws300/pipelined/p=4 ss 24 → 10, vol 125940 → 6768). They
// were regenerated once more when the scan began flipping each coin with
// the bits that decide it (rng.Bits) instead of a 64-bit word, and
// showing the input connected with base forests in its first round
// instead of a cc.Parallel run: the draws changed, yet every res came
// out the same, and ss fell by the CC run's supersteps (ws300/early/p=4
// 10 → 4, er96/early/p=4 17 → 6) while vol fell by its words less the
// base forests' (ws300/early/p=4 3520 → 2886). The early rows moved
// once more when the early-stopping scan began probing each level's first
// trial in the round that finishes the level before it, instead of
// drawing and shipping a whole level per round: every res and every
// pipelined row unchanged. ws300 stops at level 1's probe, so its ss
// stayed and only one trial's forests travel (p=4/8 vol 2886/3563 →
// 652/831); er96 stops at a level's later trial, so it pays the probe's
// one extra round (p=1/4/8 ss 3/6/6 → 4/8/8, vol +102/+135 at p=4/8).
// The mincut/ws256 rows were generated at the commit before the trial drew
// its prefix lazily and solved its base case exactly at 41 vertices;
// after it every mincut res is byte-identical, the rows whose trials ran
// on one rank each (er96 p ≤ 4, ws256) did not move at all — a trial
// there sends nothing — and mincut/er96/p=8, then solved by processor
// groups running distributed trials, fell because their recursion ended
// at the larger base case (ss 125 → 81, vol 28698 → 20362). The ws256
// rows ran 686 trials when they were generated and run 92 since Trials
// evaluates the recursion's success recurrence; none moved, for the same
// reason. mincut/er96/p=8 moved once more when the processor-group
// regime was deleted: its four trials now run on ranks 0–3 while ranks
// 4–7 idle, as at p = 4 (ss 81 → 20, vol 20362 → 3398, res unchanged).
//
// Every mincut row moved once more when the run began with its edge
// gather and took connectivity, m and the min-degree cut as local passes
// over the gathered array, where it had run cc.Parallel, a CountEdges
// AllReduce and an n-word degree AllReduce. What is left is the gather,
// the claim rounds, the argmin and the side broadcast (er96 p=1/4/8 ss
// 7/20/20 → 2/3/3, vol 1541/2762/3398 → 1442/1464/1488; ws256 p=1/2 ss
// 6/20 → 2/8, vol 4868/6405 → 4610/4635). No res moved: the trials' draws come from their own
// streams, and folding the singleton in first only bounds them.
//
// The er96 and ws256 rows moved once more when the run began with the
// sparse certificate: both graphs' min-degree cuts are proven minimum, so
// the run is the edge gather alone, with no claim rounds, argmin or side
// broadcast (er96 p=1/4/8 ss 2/3/3 → 1, vol 1442/1464/1488 → 1440;
// ws256 p=1/2 ss 2/8 → 1, vol 4610/4635 → 4608), every res unchanged.
// The planted128 rows were added then, so that a run whose certificate
// fails (a planted cut of 2 below every singleton) keeps the trial path's
// claim rounds, argmin and broadcast under the pin.
//
// The samplesort and lp rows are the pre-overhaul ones.
//
// Every row at p ≥ 2 that calls AllReduce or a two-phase Broadcast moved
// once when AllReduce became one all-to-all exchange (it had been a
// Reduce and a Broadcast) and Broadcast stopped announcing the payload
// length in a superstep of its own: every res unchanged, every ss and vol
// lower or equal (cc/er400/p=4 ss 6 → 4, vol 1923 → 1907; lp/er400/p=8
// ss 24 → 8, vol 16192 → 12832; each approxcut and samplesort row at
// p = 4, 8 one superstep fewer). The p = 2 rows of every algorithm were
// added then; at the commit before it they read cc/er400 ss 6 vol 1212,
// lp/er400 ss 24 vol 6448, approxcut ws300/early ss 4 vol 385,
// ws300/pipelined ss 4 vol 3897, er96/early ss 8 vol 1456,
// er96/pipelined ss 4 vol 2457, and the mincut and samplesort rows as now.
//
// The cc, mincut/planted128 and samplesort p = 4, 8 rows moved once more
// when only rank 0 began keeping a kernel's answer, every res unchanged.
// cc.Parallel lost its closing label Broadcast: an exact round is the
// m AllReduce and the forest gather, 2 supersteps at every p (p=2/4/8
// ss 3/4/4 → 2, vol 1203/1907/2549 → 399/1098/1732). The exact cut's
// trial path ends in one superstep in which every rank but the root
// sends the root its best (value, trial, packed side), where it ran an
// argmin AllGather and a side Broadcast (planted128 p=1/2/4/8 ss
// 2/4/3/3 → 2/3/2/2, vol 1544/1556/1572/1608 → 1542/1549/1563/1583).
// The two-phase Broadcast stopped sending chunks to the root and to
// their own holders, which moved only the splitter broadcast of
// samplesort (p=4/8 vol 4570/2048 → 4562/2040).
var acctGolden = map[string]string{
	"cc/er400/p=1":                  "ss=2 vol=1 hrel=692558b056101a44 res=12197969927824375844",
	"mincut/er96/p=1":               "ss=1 vol=1440 hrel=6c3631e2a8b2e7de res=9",
	"mincut/planted128/p=1":         "ss=2 vol=1542 hrel=ea1976e53617c145 res=2",
	"samplesort/rmat10/p=1":         "ss=0 vol=0 hrel=cbf29ce484222325 res=15746440966337804777",
	"lp/er400/p=1":                  "ss=8 vol=1604 hrel=c8f1186edcac7d25 res=12197969927824375844",
	"approxcut/ws300/early/p=1":     "ss=2 vol=1 hrel=692558b056101a44 res=513",
	"approxcut/ws300/pipelined/p=1": "ss=2 vol=1 hrel=692558b056101a44 res=523",
	"approxcut/er96/early/p=1":      "ss=4 vol=1 hrel=ed87496f429bab84 res=1026",
	"approxcut/er96/pipelined/p=1":  "ss=2 vol=1 hrel=692558b056101a44 res=1036",
	"mincut/ws256/p=1":              "ss=1 vol=4608 hrel=c8fb48786735665f res=7",
	"cc/er400/p=2":                  "ss=2 vol=399 hrel=c5c2a074717056a5 res=12197969927824375844",
	"mincut/er96/p=2":               "ss=1 vol=1440 hrel=6c3631e2a8b2e7de res=9",
	"mincut/planted128/p=2":         "ss=3 vol=1549 hrel=f77bbc638ddd6d0e res=2",
	"samplesort/rmat10/p=2":         "ss=3 vol=9161 hrel=98aee5adbbc39c05 res=6337377331379728192",
	"lp/er400/p=2":                  "ss=8 vol=3208 hrel=599872ba79429065 res=12197969927824375844",
	"approxcut/ws300/early/p=2":     "ss=3 vol=381 hrel=c9184aee20b7896f res=513",
	"approxcut/ws300/pipelined/p=2": "ss=3 vol=3893 hrel=2fe2ba267006b1c9 res=523",
	"approxcut/er96/early/p=2":      "ss=7 vol=1452 hrel=c293352c20cda1e3 res=1026",
	"approxcut/er96/pipelined/p=2":  "ss=3 vol=2453 hrel=174416e1e93cac1f res=1036",
	"mincut/ws256/p=2":              "ss=1 vol=4608 hrel=c8fb48786735665f res=7",
	"cc/er400/p=4":                  "ss=2 vol=1098 hrel=320cc2635324ec7b res=12197969927824375844",
	"mincut/er96/p=4":               "ss=1 vol=1440 hrel=6c3631e2a8b2e7de res=9",
	"mincut/planted128/p=4":         "ss=2 vol=1563 hrel=21d0679238535adc res=2",
	"samplesort/rmat10/p=4":         "ss=4 vol=4562 hrel=310baac242db41be res=11915066909254320792",
	"lp/er400/p=4":                  "ss=8 vol=6416 hrel=5e798848471106a5 res=12197969927824375844",
	"approxcut/ws300/early/p=4":     "ss=3 vol=644 hrel=2e4ae6f83d541a7b res=513",
	"approxcut/ws300/pipelined/p=4": "ss=3 vol=6118 hrel=8365f41e82c8f50a res=523",
	"approxcut/er96/early/p=4":      "ss=7 vol=3264 hrel=63b932e2a4e5c76c res=1026",
	"approxcut/er96/pipelined/p=4":  "ss=3 vol=4745 hrel=4b5d71978834169a res=1036",
	"cc/er400/p=8":                  "ss=2 vol=1732 hrel=68963dceaf512847 res=12197969927824375844",
	"mincut/er96/p=8":               "ss=1 vol=1440 hrel=6c3631e2a8b2e7de res=9",
	"mincut/planted128/p=8":         "ss=2 vol=1583 hrel=f3421d5c16a05d88 res=2",
	"samplesort/rmat10/p=8":         "ss=4 vol=2040 hrel=b98171ac52e03b76 res=7070751790068031407",
	"lp/er400/p=8":                  "ss=8 vol=12832 hrel=8c68da889572e925 res=12197969927824375844",
	"approxcut/ws300/early/p=8":     "ss=3 vol=815 hrel=9501a4fffb46a6cf res=513",
	"approxcut/ws300/pipelined/p=8": "ss=3 vol=7645 hrel=cfed0b51c9c4c4d7 res=523",
	"approxcut/er96/early/p=8":      "ss=7 vol=4313 hrel=f629118905953d03 res=1026",
	"approxcut/er96/pipelined/p=8":  "ss=3 vol=6308 hrel=304eab46bd265599 res=1036",
}

// TestAccountingRegression runs every pinned configuration and compares
// supersteps / h-relation sequence / volume / result against the golden
// values captured before the kernel-layer overhaul.
func TestAccountingRegression(t *testing.T) {
	printMode := os.Getenv("ACCT_PRINT") != ""
	for _, tc := range acctCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var result uint64
			st, err := bsp.Run(tc.p, func(c *bsp.Comm) {
				r := tc.run(c)
				if c.Rank() == 0 {
					result = r
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(st, result)
			if printMode {
				fmt.Printf("\t%q: %q,\n", tc.name, got)
				return
			}
			want, ok := acctGolden[tc.name]
			if !ok {
				t.Fatalf("no golden accounting for %s (got %s)", tc.name, got)
			}
			if got != want {
				t.Errorf("accounting drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCCCostSupersteps holds the CC kernel's cost formula to the ledger:
// on er400, one exact round, Cost's Supersteps equals the pinned cc/er400
// ss at every p.
func TestCCCostSupersteps(t *testing.T) {
	k := planner.For("cc")
	for _, p := range []int{1, 2, 4, 8} {
		var ss int
		if _, err := fmt.Sscanf(acctGolden[fmt.Sprintf("cc/er400/p=%d", p)], "ss=%d", &ss); err != nil {
			t.Fatal(err)
		}
		if got := k.Cost(planner.StatsOf(er400G.Snapshot()), p, planner.Params{}).Supersteps; got != float64(ss) {
			t.Errorf("p=%d: Cost prices %v supersteps, the ledger reads %d", p, got, ss)
		}
	}
}
