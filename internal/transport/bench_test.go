package transport_test

// Cross-fabric benchmarks: the same all-to-all superstep driven through
// the in-process fabric and the TCP-loopback fabric, at matching rank
// counts and payloads, so the socket tax is directly measurable. When
// benchmarks run, TestMain also writes BENCH_transport.json — the
// machine-readable comparison CI archives.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/benchsnap"
	"repro/internal/transport"
)

var (
	benchPs    = []int{2, 4, 8}
	benchWords = []int{64, 1024, 65536} // words staged per peer per superstep
)

// driveAllToAll runs b.N all-to-all supersteps: every rank stages
// `words` words for every peer, then Exchanges. Exchange itself is the
// barrier, so the ranks stay in lockstep without extra synchronization.
// The payload is the word index, like the rank-bucketed vertex ids real
// kernels ship.
func driveAllToAll(b *testing.B, eps []transport.Endpoint, words int) {
	b.Helper()
	p := len(eps)
	b.SetBytes(int64(p * (p - 1) * words * 8))
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(ep transport.Endpoint) {
			defer wg.Done()
			payload := make([]uint64, words)
			for i := range payload {
				payload[i] = uint64(i)
			}
			for i := 0; i < b.N; i++ {
				for to := 0; to < p; to++ {
					if to != ep.Rank() {
						ep.Send(to, payload)
					}
				}
				if err := ep.Exchange(); err != nil {
					b.Error(err)
					return
				}
			}
		}(eps[r])
	}
	wg.Wait()
}

func BenchmarkExchangeLocal(b *testing.B) {
	for _, p := range benchPs {
		for _, w := range benchWords {
			b.Run(fmt.Sprintf("p=%d/w=%d", p, w), func(b *testing.B) {
				l, err := transport.NewLocal(p)
				if err != nil {
					b.Fatal(err)
				}
				eps := make([]transport.Endpoint, p)
				for r := 0; r < p; r++ {
					eps[r] = l.Endpoint(r)
				}
				driveAllToAll(b, eps, w)
			})
		}
	}
}

func BenchmarkExchangeTCPLoopback(b *testing.B) {
	for _, p := range benchPs {
		for _, w := range benchWords {
			b.Run(fmt.Sprintf("p=%d/w=%d", p, w), func(b *testing.B) {
				eps, cleanup := newLoopbackEndpoints(b, p)
				defer cleanup()
				driveAllToAll(b, eps, w)
			})
		}
	}
}

// newLoopbackEndpoints brings up a p-process-equivalent loopback mesh
// and opens one session across it, returning each rank's endpoint.
func newLoopbackEndpoints(tb testing.TB, p int) ([]transport.Endpoint, func()) {
	tb.Helper()
	meshes, err := transport.NewLoopbackMeshes(p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	eps := make([]transport.Endpoint, p)
	sessions := make([]*transport.Session, p)
	for r := 0; r < p; r++ {
		sess, err := meshes[r].NewSession(1, members)
		if err != nil {
			tb.Fatal(err)
		}
		sessions[r] = sess
		eps[r] = sess.Root().Endpoint(r)
	}
	return eps, func() {
		for _, s := range sessions {
			s.Close()
		}
		for _, m := range meshes {
			m.Close()
		}
	}
}

// TestMain writes BENCH_transport.json whenever benchmarks were
// requested.
func TestMain(m *testing.M) {
	os.Exit(benchsnap.Main(m.Run, "BENCH_transport.json", fillBenchSnapshot))
}

// fillBenchSnapshot sweeps local / tcp over every (p, w).
// Throughput is raw wire speed — machine-bound, so informational. What
// is gated is what survives a machine change: the socket tax, tcp ns
// over local ns from the same run. The tax gates only at the 1024-word
// point: smaller payloads divide by a sub-microsecond local superstep,
// where timer noise swamps the ratio. Its Abs slack absorbs the
// core-count shift in the denominator (the in-process fabric speeds up
// disproportionately on multi-core machines, so the tax reads ~2×
// higher there than on a 1-vCPU box); what stays gated is the wire path
// blowing up several-fold relative to the local fabric. A variant that
// did not measure yields Inf or NaN, which the snapshot write rejects.
func fillBenchSnapshot(snap *benchsnap.Snapshot) error {
	variants := []string{transport.KindLocal, transport.KindTCP}
	for _, p := range benchPs {
		p := p
		for _, w := range benchWords {
			w := w
			var localNs, tcpNs float64
			for _, v := range variants {
				v := v
				var failed error
				res := testing.Benchmark(func(b *testing.B) {
					var eps []transport.Endpoint
					switch v {
					case transport.KindLocal:
						l, err := transport.NewLocal(p)
						if err != nil {
							failed = err
							b.SkipNow()
						}
						eps = make([]transport.Endpoint, p)
						for r := 0; r < p; r++ {
							eps[r] = l.Endpoint(r)
						}
					case transport.KindTCP:
						var cleanup func()
						eps, cleanup = newLoopbackEndpoints(b, p)
						defer cleanup()
					}
					driveAllToAll(b, eps, w)
				})
				if failed != nil {
					return failed
				}
				k := fmt.Sprintf("%s/p=%d/w=%d", v, p, w)
				ns := float64(res.NsPerOp())
				snap.Add(benchsnap.Info, "ns_per_superstep/"+k, ns, -1, 0)
				snap.Add(benchsnap.Info, "mb_per_s/"+k, float64(p*(p-1)*w*8)/ns*1e9/(1<<20), +1, 0)
				if v == transport.KindLocal {
					localNs = ns
				} else {
					tcpNs = ns
				}
			}
			kind := benchsnap.Info
			if w == 1024 {
				kind = benchsnap.Ratio
			}
			snap.Add(kind, fmt.Sprintf("socket_tax/p=%d/w=%d", p, w), tcpNs/localNs, -1, 30)
		}
	}
	return nil
}
