package kernels

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
	"repro/internal/transport"
)

// runKernelOverTCP executes body once per rank over a loopback TCP mesh
// and returns rank 0's Stats and result word. Every rank is its own
// session on its own mesh, exactly as separate camcd -worker processes
// would be, minus the process boundary. Every rank must report the same
// ledger as rank 0, wire-byte counts included.
func runKernelOverTCP(t *testing.T, p int, epoch uint64, body func(c *bsp.Comm) uint64) (*bsp.Stats, uint64) {
	t.Helper()
	meshes, err := transport.NewLoopbackMeshes(p, 1)
	if err != nil {
		t.Fatalf("loopback meshes: %v", err)
	}
	defer func() {
		for _, m := range meshes {
			m.Close()
		}
	}()
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	var (
		wg     sync.WaitGroup
		result uint64
	)
	stats := make([]*bsp.Stats, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess, err := meshes[r].NewSession(epoch, members)
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			m, err := bsp.NewMachineOver(sess.Root())
			if err != nil {
				errs[r] = err
				return
			}
			stats[r], errs[r] = m.Run(func(c *bsp.Comm) {
				res := body(c)
				if c.Rank() == 0 {
					result = res
				}
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	for r, st := range stats {
		if !reflect.DeepEqual(st.Ledger, stats[0].Ledger) {
			t.Errorf("tcp rank %d ledger %+v, rank 0 %+v", r, st.Ledger, stats[0].Ledger)
		}
	}
	return stats[0], result
}

// TestCrossTransportAccounting runs every pinned kernel configuration at
// p∈{2,4} over both transports and demands byte-identical fingerprints:
// same supersteps, same communication volume, same h-relation multiset,
// same result. There are no golden entries at p=2, so the two transports
// check each other; at p=4 the in-process side is additionally pinned by
// TestAccountingRegression, which transitively pins the TCP side too.
func TestCrossTransportAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-transport kernel matrix is slow under -short")
	}
	epoch := uint64(9000)
	for _, tc := range acctCasesFor(2, 4) {
		tc := tc
		epoch++
		ep := epoch
		t.Run(tc.name, func(t *testing.T) {
			var localResult uint64
			localStats, err := bsp.Run(tc.p, func(c *bsp.Comm) {
				r := tc.run(c)
				if c.Rank() == 0 {
					localResult = r
				}
			})
			if err != nil {
				t.Fatalf("local run: %v", err)
			}
			tcpStats, tcpResult := runKernelOverTCP(t, tc.p, ep, tc.run)

			localFP := fingerprint(localStats, localResult)
			tcpFP := fingerprint(tcpStats, tcpResult)
			if localFP != tcpFP {
				t.Errorf("transports disagree:\n local %s\n   tcp %s", localFP, tcpFP)
			}
			if tcpStats.Transport != transport.KindTCP {
				t.Errorf("tcp stats labelled %q", tcpStats.Transport)
			}
			if tcpStats.WireBytes == 0 && tcpStats.CommVolume > 0 {
				t.Errorf("tcp run moved %d words but accounted no wire bytes", tcpStats.CommVolume)
			}
		})
	}
}

// TestScheduleIndependenceTCP is the transport-level counterpart of
// mincut's TestScheduleIndependence: for a fixed seed the cut value and
// side must be bit-identical across p, schedule, *and* transport. The
// p = 3, two-trial row runs with a rank that claims no trial, so the
// idle rank's empty supersteps cross the wire too.
func TestScheduleIndependenceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP schedule-independence matrix is slow under -short")
	}
	g := gen.ErdosRenyiM(64, 256, 3, gen.Config{MaxWeight: 4})
	if !g.IsConnected() {
		t.Fatal("test graph must be connected")
	}
	const seed = 7
	epoch := uint64(9500)
	for _, row := range []struct{ p, maxTrials int }{{2, 32}, {4, 32}, {3, 2}} {
		opts := func(s mincut.Schedule) mincut.Options {
			return mincut.Options{SuccessProb: 0.9, MaxTrials: row.maxTrials, Schedule: s}
		}
		// Reference: single-rank, static schedule, in-process.
		var ref *mincut.CutResult
		_, err := bsp.Run(1, func(c *bsp.Comm) {
			st := rng.New(seed, uint32(c.Rank()), 0)
			ref = mincut.Parallel(c, g.N, g.Edges, st, opts(mincut.SchedStatic))
		})
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if !ref.Check(g) {
			t.Fatal("reference partition inconsistent")
		}
		for _, sched := range []mincut.Schedule{mincut.SchedStatic, mincut.SchedDynamic} {
			epoch++
			var (
				mu  sync.Mutex
				got *mincut.CutResult
			)
			_, _ = runKernelOverTCP(t, row.p, epoch, func(c *bsp.Comm) uint64 {
				var in *graph.Graph
				if c.Rank() == 0 {
					in = g
				}
				n, local := dist.ScatterGraph(c, 0, in)
				st := rng.New(seed, uint32(c.Rank()), 0)
				r := mincut.Parallel(c, n, local, st, opts(sched))
				if c.Rank() == 0 {
					mu.Lock()
					got = r
					mu.Unlock()
				}
				return r.Value
			})
			where := fmt.Sprintf("p=%d trials=%d sched=%d over tcp", row.p, row.maxTrials, sched)
			if got == nil {
				t.Fatalf("%s: no result from rank 0", where)
			}
			if got.Value != ref.Value {
				t.Errorf("%s: value %d, want %d", where, got.Value, ref.Value)
			}
			if fmt.Sprint(got.Side) != fmt.Sprint(ref.Side) {
				t.Errorf("%s: partition side differs from reference", where)
			}
		}
	}
}
