// Command bench regenerates every table and figure of the paper's
// evaluation (§5) at laptop scale: it runs the same workloads (scaled
// down from the petascale originals — see DESIGN.md for the mapping),
// prints the same rows/series the paper plots, and annotates each
// experiment with the shape the paper reports so measured results can be
// compared directly.
//
// Usage:
//
//	bench -exp fig1           # one experiment
//	bench -exp fig3a,fig9     # several
//	bench -exp all            # everything (minutes)
//	bench -exp all -quick     # reduced sizes
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// experiment is one regenerable table or figure.
type experiment struct {
	id    string
	title string
	run   func(e *env)
}

// env carries shared experiment settings.
type env struct {
	quick bool
	seed  uint64
	maxP  int
	runs  int // measurement repetitions per data point

	snap  *trace.Snapshot // non-nil when -snapshot is set
	expID string          // experiment currently running (snapshot Input)
}

// record adds one measured data point to the snapshot, if enabled.
func (e *env) record(st core.RunStats) {
	if e.snap == nil {
		return
	}
	e.snap.Records = append(e.snap.Records, &trace.Record{
		Input:      e.expID,
		Seed:       e.seed,
		Trial:      len(e.snap.Records),
		Time:       st.Time,
		MPITime:    st.CommTime,
		Algorithm:  e.expID,
		P:          st.P,
		Supersteps: st.Supersteps,
		CommVolume: st.CommVolume,
	})
}

// scale divides a size in quick mode.
func (e *env) scale(full, quick int) int {
	if e.quick {
		return quick
	}
	return full
}

// pSweep returns the processor counts for strong-scaling sweeps.
func (e *env) pSweep() []int {
	var ps []int
	for p := 1; p <= e.maxP; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		expFlag = flag.String("exp", "", "experiment id(s), comma separated, or 'all' (required)")
		quick   = flag.Bool("quick", false, "reduced problem sizes")
		seed    = flag.Uint64("seed", 1, "PRNG seed")
		maxP    = flag.Int("maxp", 0, "largest processor count (default: CPUs, max 16)")
		runs    = flag.Int("runs", 3, "repetitions per data point (median reported)")
		snap    = flag.String("snapshot", "", "write measured data points as a JSON snapshot to this file")
	)
	flag.Parse()

	experiments := []experiment{
		{"table1", "Table 1: measured MC costs vs asymptotic bounds", runTable1},
		{"fig1", "Figure 1: MC strong scaling, sparse Erdős–Rényi (+model, T_MPI/T)", runFig1},
		{"fig3a", "Figure 3a: CC strong scaling, sparse Barabási–Albert, vs baselines", runFig3a},
		{"fig3b", "Figure 3b: CC strong scaling, dense R-MAT, vs baselines", runFig3b},
		{"fig4a", "Figure 4a/4b: sequential CC cache misses and time vs BGL/Galois", runFig4a},
		{"fig4c", "Figure 4c: parallel IPM, CC vs label propagation", runFig4c},
		{"fig4d", "Figure 4d: CC strong scaling with app/comm split", runFig4d},
		{"fig5a", "Figure 5a: AppMC strong scaling, dense R-MAT", runFig5a},
		{"fig5b", "Figure 5b: AppMC weak scaling (edges grow with p)", runFig5b},
		{"fig6", "Figure 6: MC strong scaling, dense R-MAT (+model, T_MPI/T)", runFig6},
		{"fig7", "Figure 7: MC weak scaling, sparse WS and dense R-MAT", runFig7},
		{"fig8a", "Figure 8a: IPM of MC vs KS vs SW", runFig8a},
		{"fig8b", "Figure 8b: IPM of CC vs BGL vs Galois", runFig8b},
		{"fig9", "Figure 9: sequential cache misses and time, KS vs SW vs MC", runFig9},
		{"abl-bcast", "Ablation: the library's broadcast vs naive direct sends", runAblBroadcast},
		{"abl-eager", "Ablation: Eager Step vs recursive contraction only", runAblEager},
		{"abl-epsilon", "Ablation: sparsification exponent ε in CC", runAblEpsilon},
		{"abl-sampler", "Ablation: prefix vs alias weighted sampler", runAblSampler},
		{"abl-network", "Ablation: emulated interconnects (virtual g/L clock)", runAblNetwork},
		{"abl-flow", "Ablation: min cut via n-1 max-flows (related-work baseline)", runAblFlow},
		{"certify", "Census: the sparse min-cut certificate on every exact-cut input", runCertify},
	}
	byID := map[string]experiment{}
	var order []string
	for _, ex := range experiments {
		byID[ex.id] = ex
		order = append(order, ex.id)
	}

	if *expFlag == "" {
		fmt.Fprintln(os.Stderr, "available experiments:")
		for _, id := range order {
			fmt.Fprintf(os.Stderr, "  %-7s %s\n", id, byID[id].title)
		}
		os.Exit(2)
	}

	if *maxP <= 0 {
		// Virtual BSP processors beyond the physical cores timeshare;
		// cost counters (supersteps, volume, ops) remain exact, wall
		// times flatten. Sweep to at least 8 so the series have shape.
		*maxP = runtime.NumCPU()
		if *maxP < 8 {
			*maxP = 8
		}
		if *maxP > 16 {
			*maxP = 16
		}
	}
	e := &env{quick: *quick, seed: *seed, maxP: *maxP, runs: *runs}
	if e.runs < 1 {
		e.runs = 1
	}
	if *snap != "" {
		e.snap = &trace.Snapshot{Name: "bench"}
	}

	var ids []string
	if *expFlag == "all" {
		ids = order
	} else {
		ids = strings.Split(*expFlag, ",")
		sort.Strings(ids)
	}
	for _, id := range ids {
		ex, ok := byID[strings.TrimSpace(id)]
		if !ok {
			log.Fatalf("unknown experiment %q", id)
		}
		fmt.Printf("### %s — %s\n", ex.id, ex.title)
		e.expID = ex.id
		ex.run(e)
		fmt.Println()
	}
	if e.snap != nil {
		if err := trace.WriteSnapshotFile(*snap, e.snap); err != nil {
			log.Fatalf("write snapshot: %v", err)
		}
		log.Printf("wrote %d data points to %s", len(e.snap.Records), *snap)
	}
}
