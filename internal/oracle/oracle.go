// Package oracle is the admission test of the repo's Monte Carlo kernels:
// it runs a kernel over many seeds on inputs whose exact answer is known
// and holds what comes out to what the algorithm promises, with a stated
// false-alarm rate instead of a hand-picked threshold. It is the check a
// change to a kernel's random draws has to pass, and cmd/verify's
// approximation and connectivity audits are calls into it.
//
// Two arms exist:
//   - Approx runs approxcut.Parallel (both variants, several machine
//     sizes) and reports, per row, how often the estimate lands inside the
//     paper's O(log n) bracket around the Stoer–Wagner value, and the
//     histogram of the sparsity level at which the scan stopped.
//   - CC runs the connected-components kernel it is handed and compares
//     its labels with the BFS labelling, exactly.
//
// The package imports no exact-cut or planner code (the mincut tests
// import it for BinomialCDF), so callers pass λ and the CC kernel in.
// For the same reason the exact cut's certificate sweep, which runs the
// mincut kernel, is a test of this package (TestCertificateArm).
package oracle

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/approxcut"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Input is one test graph. Lambda is its exact minimum cut (the approx
// arm's reference; the CC arm ignores it).
type Input struct {
	Name   string
	G      *graph.Graph
	Lambda uint64
}

// PlantedBisection is two G(half, ½) halves joined by cross random
// edges: for small cross its minimum cut is the planted one, not a
// singleton.
func PlantedBisection(half, cross int, seed uint64) *graph.Graph {
	st := rng.New(seed, 0, 0)
	g := graph.New(2 * half)
	for side := 0; side < 2; side++ {
		for i := 0; i < half; i++ {
			for j := i + 1; j < half; j++ {
				if st.Intn(2) == 0 {
					g.AddEdge(int32(side*half+i), int32(side*half+j), 1)
				}
			}
		}
	}
	for k := 0; k < cross; k++ {
		g.AddEdge(int32(st.Intn(half)), int32(half+st.Intn(half)), 1)
	}
	return g
}

// CutInputs are the approx arm's graphs — Watts–Strogatz, a connected
// weighted Erdős–Rényi and a planted bisection, small enough for an
// exact solve — with λ filled in by lambda (Stoer–Wagner at the callers).
func CutInputs(lambda func(*graph.Graph) uint64) []Input {
	er := gen.ErdosRenyiM(48, 160, 1, gen.Config{MaxWeight: 8})
	for seed := uint64(2); !er.IsConnected(); seed++ {
		er = gen.ErdosRenyiM(48, 160, seed, gen.Config{MaxWeight: 8})
	}
	ins := []Input{
		{Name: "ws64", G: gen.WattsStrogatz(64, 8, 0.3, 5, gen.Config{})},
		{Name: "weighted-er48", G: er},
		{Name: "planted-bisection", G: PlantedBisection(24, 6, 3)},
	}
	for i := range ins {
		ins[i].Lambda = lambda(ins[i].G)
	}
	return ins
}

// ApproxShare is the share of seeds on which the approximate cut must
// land inside bracket: the paper's O(log n) factor holds w.h.p., so a
// change that falls below 90 % on small inputs has lost the guarantee.
const ApproxShare = 0.9

// bracket is the window [λ/(4·log₂ n), 4·log₂ n·λ] an approximate cut of
// an n-vertex graph with minimum cut λ must land in.
func bracket(n int, lambda uint64) (lo, hi float64) {
	f := 4 * math.Log2(float64(max(n, 2)))
	return float64(lambda) / f, float64(lambda) * f
}

// ApproxRow is one (input, machine size, variant) row of the approx arm.
type ApproxRow struct {
	Input     string
	P         int
	Pipelined bool
	Runs      int
	// Inside counts the seeds whose estimate landed inside bracket.
	Inside int
	// Levels is the histogram of the sparsity level the scan stopped at:
	// Levels[j] seeds saw their first disconnected sample at level j, and
	// Levels[0] counts scans that ran out without one.
	Levels []int
}

// PValue is the one-sided binomial p-value of "at least ApproxShare of
// the estimates land inside the bracket" given the row's count.
func (r ApproxRow) PValue() float64 { return BinomialCDF(r.Inside, r.Runs, ApproxShare) }

// Check fails the row when its p-value is below falseAlarm.
func (r ApproxRow) Check(falseAlarm float64) error {
	if pv := r.PValue(); pv < falseAlarm {
		return fmt.Errorf("%s p=%d pipelined=%v: %d/%d estimates inside the 4·log₂ n bracket rejects a share ≥ %.2f (p-value %.2g < %.0e)",
			r.Input, r.P, r.Pipelined, r.Inside, r.Runs, ApproxShare, pv, falseAlarm)
	}
	return nil
}

// Approx runs approxcut.Parallel on every input at every machine size in
// ps, both variants, over seeds 1..seeds — the run core.ApproxMinCut
// makes: rank r reads block r of the edge array and draws from
// rng.New(seed, r, 0). Results differ across p for one seed, so each p
// is an independent sample; the two variants make the same draws and
// must stop at the same level, which is checked here exactly.
func Approx(ins []Input, ps []int, seeds int) ([]ApproxRow, error) {
	var rows []ApproxRow
	for _, in := range ins {
		lo, hi := bracket(in.G.N, in.Lambda)
		for _, p := range ps {
			early := ApproxRow{Input: in.Name, P: p, Runs: seeds}
			piped := ApproxRow{Input: in.Name, P: p, Pipelined: true, Runs: seeds}
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				var level [2]int
				for v, row := range []*ApproxRow{&early, &piped} {
					r, err := approxRun(in.G, p, seed, row.Pipelined)
					if err != nil {
						return nil, fmt.Errorf("%s p=%d seed=%d: %w", in.Name, p, seed, err)
					}
					if est := float64(r.Value); est >= lo && est <= hi {
						row.Inside++
					}
					level[v] = stopLevel(r)
					row.Levels = countAt(row.Levels, level[v])
				}
				if level[0] != level[1] {
					return nil, fmt.Errorf("%s p=%d seed=%d: early stopping stopped at level %d, the pipelined scan at %d, on the same draws",
						in.Name, p, seed, level[0], level[1])
				}
			}
			rows = append(rows, early, piped)
		}
	}
	return rows, nil
}

// approxRun is one approxcut.Parallel run on a p-processor machine.
func approxRun(g *graph.Graph, p int, seed uint64, pipelined bool) (*approxcut.Result, error) {
	var res *approxcut.Result
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		lo, hi := dist.BlockRange(len(g.Edges), c.Size(), c.Rank())
		r := approxcut.Parallel(c, g.N, g.Edges[lo:hi], rng.New(seed, uint32(c.Rank()), 0), approxcut.Options{Pipelined: pipelined})
		if c.Rank() == 0 {
			res = r
		}
	})
	return res, err
}

// stopLevel is the sparsity level whose sample first came out
// disconnected, or 0 when none did.
func stopLevel(r *approxcut.Result) int {
	if !r.Disconnected {
		return 0
	}
	return int(math.Log2(float64(r.Value)))
}

// countAt increments h[j], growing h as needed.
func countAt(h []int, j int) []int {
	if j >= len(h) {
		h = append(h, make([]int, j+1-len(h))...)
	}
	h[j]++
	return h
}

// CCKernel is one connected-components kernel under test: Labels runs it
// on g at machine size p under seed and returns its labelling.
type CCKernel struct {
	Name   string
	Labels func(g *graph.Graph, p int, seed uint64) ([]int32, error)
}

// CCInputs are the CC arm's graphs: sparse Erdős–Rényi graphs with many
// components and isolated vertices, a long path (high diameter) and a
// grid.
func CCInputs() []Input {
	return []Input{
		{Name: "er640", G: gen.ErdosRenyiM(640, 800, 1, gen.Config{})},
		{Name: "er2000", G: gen.ErdosRenyiM(2000, 2400, 2, gen.Config{MaxWeight: 5})},
		{Name: "path500", G: gen.Path(500, 1)},
		{Name: "grid20x30", G: gen.Grid(20, 30, 1)},
	}
}

// CCRow is one (kernel, input) row of the CC arm.
type CCRow struct {
	Kernel, Input string
	Runs          int
	// Mismatch describes the first run whose labels differ from BFS's;
	// empty when every run matched.
	Mismatch string
}

// CC runs the kernel k on every input at every machine size in ps over
// seeds 1..seeds and compares each labelling with cc.Sequential's BFS
// labels. Both number components by first appearance, so the labels must
// be equal, not just the partitions.
func CC(k CCKernel, ins []Input, ps []int, seeds int) ([]CCRow, error) {
	var rows []CCRow
	for _, in := range ins {
		want := cc.Sequential(in.G).Labels
		row := CCRow{Kernel: k.Name, Input: in.Name}
		for _, p := range ps {
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				got, err := k.Labels(in.G, p, seed)
				if err != nil {
					return nil, fmt.Errorf("%s on %s p=%d seed=%d: %w", k.Name, in.Name, p, seed, err)
				}
				row.Runs++
				if row.Mismatch == "" && !slices.Equal(got, want) {
					row.Mismatch = fmt.Sprintf("p=%d seed=%d: %d labels, first difference at vertex %d", p, seed, len(got), firstDiff(got, want))
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
