package bsp_test

// Benchmark suite for the BSP hot path. Every benchmark here sticks to
// the stable public surface (Run + Comm methods) so the same file can be
// dropped onto an older checkout for benchstat before/after comparison:
//
//	go test -run='^$' -bench=. -count=10 ./internal/bsp/ > new.txt
//	git worktree add /tmp/old <ref> && cp bench_test.go /tmp/old/...
//	(cd /tmp/old && go test ... > old.txt) && benchstat old.txt new.txt
//
// Machine-reuse benchmarks (which need the newer Machine API) live in
// bench_reuse_test.go.

import (
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/rng"
)

var benchPs = []int{1, 4, 16}

// BenchmarkSync measures raw barrier latency: every processor spins on
// Sync b.N times; reported ns/op is the per-superstep cost including
// accounting, amortizing one machine spin-up.
func BenchmarkSync(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			_, err := bsp.Run(p, func(c *bsp.Comm) {
				for i := 0; i < b.N; i++ {
					c.Sync()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSendRecv measures point-to-point delivery: each processor
// sends k words to its ring successor every superstep and reads the
// words it received. SetBytes makes throughput comparable across sizes.
func BenchmarkSendRecv(b *testing.B) {
	const p = 4
	for _, k := range []int{16, 1024} {
		b.Run(fmt.Sprintf("p=%d/k=%d", p, k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(k * 8))
			_, err := bsp.Run(p, func(c *bsp.Comm) {
				payload := make([]uint64, k)
				for i := range payload {
					payload[i] = uint64(i)
				}
				dst := (c.Rank() + 1) % c.Size()
				src := (c.Rank() + c.Size() - 1) % c.Size()
				var sink uint64
				for i := 0; i < b.N; i++ {
					c.Send(dst, payload)
					c.Sync()
					in := c.Recv(src)
					sink += in[len(in)-1]
				}
				_ = sink
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchCollective runs one collective op b.N times on a p-processor
// machine.
func benchCollective(b *testing.B, p int, body func(c *bsp.Comm, payload []uint64)) {
	b.Helper()
	b.ReportAllocs()
	_, err := bsp.Run(p, func(c *bsp.Comm) {
		payload := make([]uint64, 256)
		for i := range payload {
			payload[i] = uint64(c.Rank()*1000 + i)
		}
		for i := 0; i < b.N; i++ {
			body(c, payload)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBroadcast(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				var in []uint64
				if c.Rank() == 0 {
					in = payload
				}
				c.Broadcast(0, in)
			})
		})
	}
}

func BenchmarkAllGather(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				c.AllGather(payload[:16])
			})
		})
	}
}

func BenchmarkAllToAll(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				parts := make([][]uint64, c.Size())
				chunk := len(payload) / c.Size()
				for d := range parts {
					parts[d] = payload[d*chunk : (d+1)*chunk]
				}
				c.AllToAll(parts)
			})
		})
	}
}

func BenchmarkReduce(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				c.Reduce(0, payload, bsp.OpSum)
			})
		})
	}
}

func BenchmarkAllReduce(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				c.AllReduce(payload, bsp.OpMin)
			})
		})
	}
}

func BenchmarkScatter(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				var parts [][]uint64
				if c.Rank() == 0 {
					parts = make([][]uint64, c.Size())
					chunk := len(payload) / c.Size()
					for d := range parts {
						parts[d] = payload[d*chunk : (d+1)*chunk]
					}
				}
				c.Scatter(0, parts)
			})
		})
	}
}

func BenchmarkGather(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchCollective(b, p, func(c *bsp.Comm, payload []uint64) {
				c.Gather(0, payload[:16])
			})
		})
	}
}

// benchGraph is the fixed end-to-end workload: a connected-ish ER graph
// small enough that a -benchtime=1x CI smoke run stays fast.
func benchGraph() *graph.Graph {
	return gen.ErdosRenyiM(600, 3000, 7, gen.Config{MaxWeight: 8})
}

// BenchmarkKernelCC runs the paper's O(1)-superstep connected components
// end to end, machine spin-up included — the serving layer's unit of work.
func BenchmarkKernelCC(b *testing.B) {
	g := benchGraph()
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := bsp.Run(p, func(c *bsp.Comm) {
					lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
					st := rng.New(11, uint32(c.Rank()), 0)
					r := cc.Parallel(c, g.N, g.Edges[lo:hi], st, cc.Options{})
					if c.Rank() == 0 && r.Count < 1 {
						b.Error("no components")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelMinCut runs the exact minimum cut's trial body with a
// capped trial count so the benchmark measures the BSP machinery, not
// trial variance (Parallel would prove this input's cut with no trial).
func BenchmarkKernelMinCut(b *testing.B) {
	g := benchGraph()
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := bsp.Run(p, func(c *bsp.Comm) {
					lo, hi := dist.BlockRange(len(g.Edges), p, c.Rank())
					st := rng.New(13, uint32(c.Rank()), 0)
					r := mincut.ParallelTrials(c, g.N, g.Edges[lo:hi], st, mincut.Options{
						SuccessProb: 0.9,
						MaxTrials:   4,
					})
					if c.Rank() == 0 && r == nil {
						b.Error("no cut result")
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
