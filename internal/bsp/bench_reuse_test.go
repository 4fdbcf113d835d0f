package bsp_test

// Machine-reuse benchmarks and the BENCH_bsp.json snapshot. These use
// the Machine API (NewMachine + repeated Run), i.e. the serving layer's
// steady-state pattern, so they don't belong in the old-API-portable
// bench_test.go.

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/benchsnap"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/mincut"
	"repro/internal/rng"
)

// BenchmarkMachineReuseSync measures the superstep cost when the machine
// is pooled across runs: one NewMachine, b.N Run calls of 8 supersteps
// each. Steady state must not allocate per superstep.
func BenchmarkMachineReuseSync(b *testing.B) {
	const supersteps = 8
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := bsp.NewMachine(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(func(c *bsp.Comm) {
					for s := 0; s < supersteps; s++ {
						c.Sync()
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelCCReuse is BenchmarkKernelCC with a pooled machine:
// the delta between the two is the spin-up cost the serving layer's
// machine pool eliminates.
func BenchmarkKernelCCReuse(b *testing.B) {
	g := benchGraph()
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := bsp.NewMachine(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(func(c *bsp.Comm) {
					lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
					st := rng.New(11, uint32(c.Rank()), 0)
					r := cc.Parallel(c, g.N, g.Edges[lo:hi], st, cc.Options{})
					if c.Rank() == 0 && r.Count < 1 {
						b.Error("no components")
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMain writes BENCH_bsp.json — the end-to-end kernel costs per
// (algorithm, p) — whenever benchmarks were requested.
func TestMain(m *testing.M) {
	os.Exit(benchsnap.Main(m.Run, "BENCH_bsp.json", fillBenchSnapshot))
}

// fillBenchSnapshot runs each kernel once per p on the fixed input and
// seed: supersteps, communication volume and the result are exact under
// that seed; the T and T_MPI wall-clock split is informational.
func fillBenchSnapshot(snap *benchsnap.Snapshot) error {
	g := benchGraph()
	// The sequential oracles every parallel answer must equal.
	want := map[string]uint64{"cc": uint64(cc.Sequential(g).Count), "mincut": mincut.StoerWagner(g).Value}
	mismatches := 0
	for _, alg := range []string{"cc", "mincut"} {
		for _, p := range benchPs {
			var result uint64
			start := time.Now()
			st, err := bsp.Run(p, func(c *bsp.Comm) {
				lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
				stream := rng.New(11, uint32(c.Rank()), 0)
				switch alg {
				case "cc":
					r := cc.Parallel(c, g.N, g.Edges[lo:hi], stream, cc.Options{})
					if c.Rank() == 0 {
						result = uint64(r.Count)
					}
				case "mincut":
					r := mincut.Parallel(c, g.N, g.Edges[lo:hi], stream, mincut.Options{
						SuccessProb: 0.9, MaxTrials: 4,
					})
					if c.Rank() == 0 {
						result = r.Value
					}
				}
			})
			elapsed := time.Since(start)
			if err != nil {
				return err
			}
			if result != want[alg] {
				mismatches++
			}
			k := fmt.Sprintf("%s/p=%d", alg, p)
			snap.Add(benchsnap.Exact, "result/"+k, float64(result), 0, 0)
			snap.Add(benchsnap.Exact, "comm_volume/"+k, float64(st.CommVolume), -1, 0)
			snap.Add(benchsnap.Exact, "supersteps/"+k, float64(st.Supersteps), -1, 0)
			snap.Add(benchsnap.Info, "time_sec/"+k, elapsed.Seconds(), -1, 0)
			snap.Add(benchsnap.Info, "mpi_time_sec/"+k, st.MaxCommTime.Seconds(), -1, 0)
		}
	}
	snap.Add(benchsnap.Exact, "result_mismatches", float64(mismatches), -1, 0)
	return nil
}
