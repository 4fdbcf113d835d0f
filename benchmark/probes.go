package main

// Layer probes: direct timed calls into one package's public functions,
// on the workload's own input, after the traced phase. Each reports the
// median of a few repetitions.

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	camc "repro"
	"repro/internal/bsp"
	"repro/internal/cc"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/planner"
	"repro/internal/rng"
	"repro/internal/service"
	xsort "repro/internal/sort"
	"repro/internal/sparsify"
	"repro/internal/tenant"
	"repro/internal/transport"
)

func (o options) probeReps() int { return o.size(5, 2) }

// prober runs probes and files their medians. The first failure sticks:
// later probes are skipped and err reports it, so a probe list reads
// top to bottom without an error check after every line.
type prober struct {
	m    *metrics
	reps int
	err  error
}

// median runs f reps times and returns the median of the durations f
// reports for itself (f times only the part it wants measured).
func (p *prober) median(f func() (time.Duration, error)) time.Duration {
	ds := make([]float64, 0, p.reps)
	for i := 0; i < p.reps && p.err == nil; i++ {
		d, err := f()
		p.err = err
		ds = append(ds, float64(d))
	}
	if p.err != nil {
		return 0
	}
	return time.Duration(median(ds))
}

// ms files the median duration of f in milliseconds under name.
func (p *prober) ms(name string, f func() (time.Duration, error)) time.Duration {
	d := p.median(f)
	p.set(name, ms(d))
	return d
}

// per files the median duration of f divided by items, in nanoseconds.
func (p *prober) per(name string, items int, f func() (time.Duration, error)) float64 {
	v := float64(p.median(f).Nanoseconds()) / float64(items)
	p.set(name, v)
	return v
}

func (p *prober) set(name string, v float64) {
	if p.err == nil {
		p.m.set(name, v, p.reps)
	}
}

// wall times a plain call.
func wall(f func()) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		f()
		return time.Since(start), nil
	}
}

// onMachine runs body on a fresh p-processor in-process machine after
// scattering g, and returns what rank 0's timed section took. The
// barrier before the clock starts keeps the scatter out of it.
func onMachine(p int, g *graph.Graph, body func(c *bsp.Comm, n int, local []graph.Edge)) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		var took time.Duration
		_, err := bsp.Run(p, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			n, local := dist.ScatterGraph(c, 0, in)
			c.Sync()
			start := time.Now()
			body(c, n, local)
			c.Sync()
			if c.Rank() == 0 {
				took = time.Since(start)
			}
		})
		return took, err
	}
}

// ccProbes times the layers under cc_batch on its own graph: radix sort,
// scatter, sample sort, the sparsifier, the kernel on a p=1 machine
// against its machine-less sequential form, and the three baselines the
// paper compares against.
func ccProbes(b *batch, m *metrics) error {
	g, edges := b.g, b.g.M()
	p := &prober{m: m, reps: b.o.probeReps()}

	kvs, scratch := make([]xsort.KV, edges), make([]xsort.KV, edges)
	p.per("sort.pairs_ns_key", edges, func() (time.Duration, error) {
		for i, e := range g.Edges {
			kvs[i] = xsort.KV{K: xsort.Key(e.U, e.V), V: e.W}
		}
		start := time.Now()
		xsort.Pairs(kvs, scratch)
		return time.Since(start), nil
	})
	p.per("dist.scatter_ns_edge_p2", edges, func() (time.Duration, error) {
		start := time.Now()
		_, err := bsp.Run(2, func(c *bsp.Comm) {
			var in *graph.Graph
			if c.Rank() == 0 {
				in = g
			}
			dist.ScatterGraph(c, 0, in)
		})
		return time.Since(start), err
	})
	p.per("dist.samplesort_ns_edge_p2", edges, onMachine(2, g, func(c *bsp.Comm, n int, local []graph.Edge) {
		dist.SampleSortEdges(c, local)
	}))
	sample := int(math.Ceil(math.Pow(float64(g.N), 1.25))) // the kernel's default s = n^(1+ε/2), ε = 0.5
	p.per("sparsify.unweighted_ns_edge_p2", edges, onMachine(2, g, func(c *bsp.Comm, n int, local []graph.Edge) {
		sparsify.Unweighted(c, 0, local, sample, n, 0.5, rng.New(b.o.seed, uint32(c.Rank()), 0))
	}))

	iterations := 0
	p1 := p.ms("cc.parallel_p1_ms", onMachine(1, g, func(c *bsp.Comm, n int, local []graph.Edge) {
		iterations = cc.Parallel(c, n, local, rng.New(b.o.seed, 0, 0), cc.Options{}).Iterations
	}))
	seq := p.ms("cc.seq_sampling_ms", wall(func() { cc.SequentialSampling(g, rng.New(b.o.seed, 0, 0), 0.5) }))
	p.set("cc.p1_over_seq", float64(p1)/float64(seq))
	p.set("cc.iterations", float64(iterations))
	p.ms("cc.bfs_ms", wall(func() { cc.Sequential(g) }))
	p.ms("cc.shared_ms", wall(func() { cc.SharedMemory(g, 2) }))
	p.ms("cc.labelprop_p2_ms", onMachine(2, g, func(c *bsp.Comm, n int, local []graph.Edge) {
		cc.LabelPropagation(c, n, local)
	}))
	return p.err
}

// minCutProbes times the sequential references under mincut_batch and
// takes the exact counts of a second trials<p solve at p=4.
func minCutProbes(b *batch, m *metrics) error {
	g := b.g
	p := &prober{m: m, reps: b.o.probeReps()}
	var trials int
	ks := p.median(wall(func() {
		// Success 0.5 is a third of the trials of 0.9; the metric is per trial.
		trials = mincut.KargerStein(g, rng.New(b.o.seed, 0, 0), 0.5).Trials
	}))
	p.set("mincut.ks_ms_trial", ms(ks)/float64(trials))
	p.ms("mincut.sw_ms", wall(func() { mincut.StoerWagner(g) }))

	out, err := b.solve(g, camc.Options{Processors: smallCountP, MaxTrials: countMaxTrials, Seed: b.o.seed})
	if err != nil {
		return fmt.Errorf("count-only solve at p=%d: %w", smallCountP, err)
	}
	m.set("mincut.supersteps_p4_t4", float64(out.stats.Supersteps), 1)
	m.set("mincut.words_p4_t4", float64(out.stats.CommVolume), 1)
	return p.err
}

// serveProbes times the per-query costs serve_mix pays outside the
// kernels: the tenant gate, the planner's decision, parsing and
// snapshotting an upload, and one approximate cut at p=2.
func serveProbes(o options, eng *service.Engine, tcfg tenant.Config, big, mid *truth, m *metrics) error {
	p := &prober{m: m, reps: o.probeReps()}
	loops := o.size(200_000, 2_000)

	tn, err := tenant.NewRegistry(tcfg).Authenticate(tcfg.Tenants[0].Token)
	if err != nil {
		return err
	}
	p.per("tenant.acquire_ns", loops, func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < loops; i++ {
			release, _, err := tn.AcquireQuery()
			if err != nil {
				return 0, err
			}
			release()
		}
		return time.Since(start), nil
	})
	if pl := eng.Planner(); pl != nil {
		st := planner.StatsOf(big.g.Snapshot())
		p.per("planner.choose_ns", loops, wall(func() {
			for i := 0; i < loops; i++ {
				pl.Choose(algCC, st, planner.Params{Epsilon: 0.5}, 0, 2)
			}
		}))
	}

	parsed := big.g // replaced by what the parser returns
	p.per("graph.parse_ns_edge", big.g.M(), func() (time.Duration, error) {
		start := time.Now()
		g, err := graph.ReadEdgeList(bytes.NewReader(big.body))
		if err == nil {
			parsed = g
		}
		return time.Since(start), err
	})
	p.per("graph.snapshot_ns_edge", big.g.M(), wall(func() { parsed.Snapshot() }))

	var steps int
	p.ms("approxcut.parallel_ms_p2", func() (time.Duration, error) {
		r, err := camc.ApproxMinCut(mid.g, camc.Options{Processors: 2, Seed: o.seed})
		if err != nil {
			return 0, err
		}
		steps = r.Stats.Supersteps
		return r.Stats.Time, mid.checkApproxCut(r.Value)
	})
	p.set("approxcut.supersteps_p2", float64(steps))
	return p.err
}

// stepLoop is the probe body shared by both fabrics: steps supersteps
// in which each of the two ranks sends words words to the other.
func stepLoop(steps, words int, took *time.Duration) func(c *bsp.Comm) {
	return func(c *bsp.Comm) {
		payload := make([]uint64, words)
		for i := range payload {
			payload[i] = uint64(i)
		}
		c.Sync()
		start := time.Now()
		for i := 0; i < steps; i++ {
			if words > 0 {
				c.Send(1-c.Rank(), payload)
			}
			c.Sync()
		}
		if c.Rank() == 0 {
			*took = time.Since(start)
		}
	}
}

// tcpRun runs body as a p=2 machine over a real loopback TCP mesh: two
// single-rank machines, one per mesh endpoint, as two worker processes
// would. A TCP session serves exactly one run.
func tcpRun(body func(c *bsp.Comm)) error {
	meshes, err := transport.NewLoopbackMeshes(2, 1)
	if err != nil {
		return err
	}
	defer func() {
		for _, mesh := range meshes {
			mesh.Close()
		}
	}()
	errs := make([]error, len(meshes))
	var wg sync.WaitGroup
	for r := range meshes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess, err := meshes[r].NewSession(1, []int{0, 1})
			if err != nil {
				errs[r] = err
				return
			}
			defer sess.Close()
			mach, err := bsp.NewMachineOver(sess.Root())
			if err != nil {
				errs[r] = err
				return
			}
			_, errs[r] = mach.Run(body)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fabricProbes times the superstep itself at p=2: the bare barrier and
// a one-word all-reduce in process, then an all-to-all step of 64 and
// 1024 words over the in-process fabric and over loopback sockets.
func fabricProbes(o options, m *metrics) error {
	p := &prober{m: m, reps: o.probeReps()}
	local, tcp := o.size(20_000, 200), o.size(4_000, 100)

	var took time.Duration
	p.per("bsp.barrier_ns_p2", local, func() (time.Duration, error) {
		_, err := bsp.Run(2, stepLoop(local, 0, &took))
		return took, err
	})
	p.per("bsp.allreduce_ns_p2", local, func() (time.Duration, error) {
		_, err := bsp.Run(2, func(c *bsp.Comm) {
			c.Sync()
			start := time.Now()
			for i := 0; i < local; i++ {
				c.AllReduce([]uint64{1}, bsp.OpSum)
			}
			if c.Rank() == 0 {
				took = time.Since(start)
			}
		})
		return took, err
	})
	var tax float64
	for _, words := range []int{64, 1024} {
		inProcess := p.per(fmt.Sprintf("transport.local_ns_step_w%d", words), local, func() (time.Duration, error) {
			_, err := bsp.Run(2, stepLoop(local, words, &took))
			return took, err
		})
		sockets := p.per(fmt.Sprintf("transport.tcp_ns_step_w%d", words), tcp, func() (time.Duration, error) {
			err := tcpRun(stepLoop(tcp, words, &took))
			return took, err
		})
		tax = sockets / inProcess
	}
	p.set("transport.socket_tax_w1024", tax)
	return p.err
}
