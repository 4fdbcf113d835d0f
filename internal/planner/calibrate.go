package planner

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/perfmodel"
)

// calGraph is one calibration workload: a small deterministic graph plus
// the stats its cost formulas see and the parameters its kernels run at.
type calGraph struct {
	alg string
	g   *graph.Graph
	st  GraphStats
	run RunParams
}

func calPath(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1), 1)
	}
	return g
}

// calibrationSuite spans the regimes the formulas must discriminate:
// high-diameter paths, low-diameter random graphs, and several sizes of
// each, so the least-squares system sees independent variation in comp,
// volume, and supersteps. The two larger CC graphs anchor the slopes —
// without them the fit extrapolates serving-size queries from a cluster
// of near-identical small samples and the ordering of machine sizes
// becomes a coin flip. All graphs are deterministic (fixed seeds).
func calibrationSuite() []calGraph {
	run := RunParams{Seed: 42}.Defaulted()
	var suite []calGraph
	for _, g := range []*graph.Graph{
		calPath(512),
		calPath(2048),
		calPath(8192),
		gen.ErdosRenyiM(256, 2048, 7, gen.Config{}),
		gen.ErdosRenyiM(1024, 8192, 7, gen.Config{}),
		gen.ErdosRenyiM(4096, 32768, 7, gen.Config{}),
		gen.WattsStrogatz(512, 8, 0.2, 7, gen.Config{}),
	} {
		suite = append(suite, calGraph{alg: "cc", g: g, st: StatsOf(g.Snapshot()), run: run})
	}
	for _, g := range []*graph.Graph{
		gen.WattsStrogatz(128, 6, 0.2, 7, gen.Config{}),
		gen.WattsStrogatz(256, 6, 0.2, 7, gen.Config{}),
		gen.ErdosRenyiM(192, 768, 7, gen.Config{}),
		gen.ErdosRenyiM(384, 1536, 7, gen.Config{}),
	} {
		run.MaxTrials = mincut.Trials(g.N, len(g.Edges), run.SuccessProb)
		if run.MaxTrials > 12 {
			run.MaxTrials = 12 // bound startup cost; the fit only needs the slope
		}
		suite = append(suite, calGraph{alg: "mincut", g: g, st: StatsOf(g.Snapshot()), run: run})
	}
	return suite
}

// calReps is how many times each calibration point runs; the fastest
// rep is kept. One-shot timings carry GC pauses and scheduler noise
// that a least-squares fit over a few dozen points cannot average out,
// and a single outlier can flip the fitted ordering of machine sizes.
const calReps = 2

// measure runs k over cg on mach calReps times and returns the sample its
// fit consumes: the measured ledger's features, timed at the fastest rep.
func measure(k *Kernel, cg *calGraph, mach *bsp.Machine) (s perfmodel.Sample, _ error) {
	s.Time = math.MaxFloat64
	for rep := 0; rep < calReps; rep++ {
		start := time.Now()
		_, st, err := k.Exec(context.TODO(), Shape{Machine: mach}, cg.g.N, cg.g.Edges, cg.run, nil)
		if err != nil {
			return s, err
		}
		s.Comp, s.Volume = float64(st.MaxOps), float64(st.CommVolume)
		s.Supersteps, s.P = float64(st.Supersteps), float64(st.P)
		s.Time = min(s.Time, time.Since(start).Seconds())
	}
	return s, nil
}

// CalibrateBuiltins measures every kernel with a cost model over the
// built-in suite — through the same Kernel.Exec serving and the library
// use — and fits its model: kernels run on real machines at p in
// {1,2,4,8,16} (clamped to maxP — the spread in log₂p is what separates
// the volume constant from the intercept). A kernel whose fit fails
// stays uncalibrated — decisions for it fall back to the heuristic p and
// count as planner fallbacks — and the joined error reports every such
// kernel rather than silently defaulting.
func (pl *Planner) CalibrateBuiltins(maxP int) error {
	if maxP < 1 {
		maxP = 1
	}
	suite := calibrationSuite()
	samples := make(map[string][]perfmodel.Sample)

	for _, p := range []int{1, 2, 4, 8, 16} {
		if p > maxP && p > 1 {
			break
		}
		mach, err := bsp.NewMachine(p)
		if err != nil {
			return err
		}
		// One throwaway run so first-use machine setup does not pollute
		// the first kernel's sample.
		if _, err := mach.Run(func(c *bsp.Comm) {
			c.AllReduce([]uint64{1}, bsp.OpSum)
		}); err != nil {
			return err
		}
		for i := range suite {
			k := For(suite[i].alg)
			s, err := measure(k, &suite[i], mach)
			if err != nil {
				return err
			}
			samples[k.Name] = append(samples[k.Name], s)
		}
	}
	var errs []error
	for _, k := range Kernels() {
		if err := pl.Fit(k.Name, samples[k.Name]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
