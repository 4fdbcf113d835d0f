package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tenant"
)

// clients is the closed loop's width: each sends its next request only
// after the previous reply, over its own keep-alive connection.
const clients = 2

// opRec is one executed op as the client saw it.
type opRec struct {
	op      op
	err     string // transport-level failure; empty when a reply arrived
	status  int
	at      time.Duration // completion, since the phase started
	lat     time.Duration
	refusal string // the reply's error text when the status is not the scheduled one
	version uint64 // graph version the reply (or the upload) names
	reply   service.QueryResponse
}

func (r *opRec) executed() bool { return r.op.Kind == opQuery && r.reply.Outcome == "executed" }

// graphSpec describes one generated input graph of an HTTP workload.
type graphSpec struct {
	family string // ws | er | rmat
	n      int    // vertices (rmat: rounded down to a power of two)
	deg    int    // ws: ring degree k; er, rmat: average degree
}

func (s graphSpec) generate(seed uint64) *graph.Graph {
	switch s.family {
	case "ws":
		return gen.WattsStrogatz(s.n, s.deg, 0.3, seed, gen.Config{})
	case "er":
		return gen.ErdosRenyiM(s.n, s.n*s.deg/2, seed, gen.Config{})
	default:
		scale := 0
		for 1<<(scale+1) <= s.n {
			scale++
		}
		return gen.RMAT(scale, (1<<scale)*s.deg/2, seed, gen.Config{})
	}
}

// scaled shrinks the graphs of a smoke run to an eighth of their vertices.
func scaled(specs []graphSpec, o options) []graphSpec {
	if !o.quick {
		return specs
	}
	small := make([]graphSpec, len(specs))
	for i, s := range specs {
		small[i] = graphSpec{s.family, s.n / 8, s.deg}
	}
	return small
}

// httpLoad is a closed-loop HTTP workload against an in-process system:
// the generator, the clients, the oracles and the span bookkeeping are
// shared; start brings up the system under test and extra adds the
// workload's own layer metrics.
type httpLoad struct {
	name   string
	o      options
	tr     *tracer
	mx     mix
	specs  []graphSpec
	warmup int // scheduled ops run off the clock after the cache sweep
	start  func(h *httpLoad) error
	extra  func(h *httpLoad, traced *phase, m *metrics) error

	base    string // URL the clients talk to
	token   string
	client  *http.Client
	closers []func()

	truths   [][]*truth       // [graph][variant]
	versions []map[uint64]int // [graph]: registry version → variant, learnt from upload replies
	gen      *generator
	uploadMs []float64 // set-up uploads, client-observed

	engine     *service.Engine // serve_mix: for the probes; fleet_tcp: the leader's
	statsBase  string          // whose /v1/stats brackets each phase: the daemon's, or the leader's
	tenants    tenant.Config
	calibrateS float64
}

func (h *httpLoad) fingerprint() string {
	var graphs []*graph.Graph
	for _, variants := range h.truths {
		for _, t := range variants {
			graphs = append(graphs, t.g)
		}
	}
	return scheduleFingerprint(h.name, h.o.seed, graphs, &h.mx)
}

func (h *httpLoad) close() {
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
	h.closers = nil
}

// listen serves handler on a fresh loopback port until close.
func (h *httpLoad) listen(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always http.ErrServerClosed once close runs
	}()
	h.closers = append(h.closers, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// setup generates graphs and oracles, starts the system, uploads
// variant 0 of every graph and warms caches, plans and connections.
func (h *httpLoad) setup() error {
	h.truths = make([][]*truth, len(h.specs))
	h.versions = make([]map[uint64]int, len(h.specs))
	for g, spec := range h.specs {
		h.versions[g] = map[uint64]int{}
		for v := 0; v < h.mx.Variants; v++ {
			t, err := newTruth(spec.generate(h.o.seed^graphSeedSalt+uint64(g*h.mx.Variants+v)), true)
			if err != nil {
				return err
			}
			h.truths[g] = append(h.truths[g], t)
		}
	}
	h.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	if err := h.start(h); err != nil {
		return err
	}

	var warm []opRec
	for g := range h.specs {
		rec := h.exec(op{ID: noOpID, Kind: opUpload, Graph: g, Status: http.StatusCreated})
		h.uploadMs = append(h.uploadMs, ms(rec.lat))
		warm = append(warm, rec)
	}
	// Sweep every repeatable query once, so the timed phase starts with
	// a full result cache and built plans, then run some scheduled ops.
	for g := range h.specs {
		for _, alg := range []string{algCC, algApproxCut, algMinCut} {
			if alg == algMinCut && g >= h.mx.CutGraphs {
				continue
			}
			for s := 1; s <= h.mx.WarmSeeds; s++ {
				warm = append(warm, h.exec(op{ID: noOpID, Kind: opQuery, Graph: g, Alg: alg, Seed: uint64(s), Status: http.StatusOK}))
			}
		}
	}
	calm := h.mx
	calm.Upload = 0
	warmGen := newGenerator(calm, ^h.o.seed)
	for i := 0; i < h.warmup; i++ {
		warm = append(warm, h.exec(warmGen.nextOp()))
	}
	if wrong := h.verify(warm); len(wrong) > 0 {
		return fmt.Errorf("warm-up: %d of %d ops wrong, first: %s", len(wrong), len(warm), wrong[0])
	}
	h.gen = newGenerator(h.mx, h.o.seed)
	return nil
}

func (h *httpLoad) graphName(g int) string {
	if g < 0 {
		return "no-such-graph"
	}
	return "g" + strconv.Itoa(g)
}

// exec sends one op and records the reply. The clock covers the round
// trip up to the last body byte; decoding is off it.
func (h *httpLoad) exec(o op) opRec {
	rec := opRec{op: o}
	url, contentType := h.base+"/v1/query", "application/json"
	var body []byte
	if o.Kind == opUpload {
		url, contentType = h.base+"/v1/graphs?name="+h.graphName(o.Graph), "text/plain"
		body = h.truths[o.Graph][o.Variant].body
	} else {
		q := service.QueryRequest{Graph: h.graphName(o.Graph), Algorithm: o.Alg, Seed: o.Seed, NoCache: h.mx.NoCache}
		if o.Alg == algMinCut {
			q.MaxTrials, q.IncludeSide = h.mx.MaxTrials, true
		}
		body, _ = json.Marshal(q) // a struct of strings and numbers cannot fail to marshal
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", contentType)
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	tracing := h.tr != nil && h.tr.on.Load()
	if tracing {
		req.Header.Set(headerOpID, strconv.Itoa(o.ID))
	}
	t0 := time.Now()
	resp, err := h.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	rec.lat = t1.Sub(t0)
	if tracing {
		h.tr.add(span{Op: o.ID, Name: spanClient, Start: h.tr.since(t0), End: h.tr.since(t1)})
	}
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	rec.status = resp.StatusCode
	switch {
	case o.Kind == opUpload && rec.status == http.StatusCreated:
		var info service.GraphInfo
		err = json.Unmarshal(data, &info)
		rec.version = info.Version
	case o.Kind == opQuery && rec.status == http.StatusOK:
		err = json.Unmarshal(data, &rec.reply)
		rec.version = rec.reply.Version
	}
	if err != nil {
		rec.err = "undecodable reply: " + err.Error()
	}
	if rec.status != o.Status {
		var refusal struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &refusal) // best effort: only decorates the failure listing
		rec.refusal = refusal.Error
	}
	return rec
}

// run is one timed phase: the clients pull ops from the shared
// generator until d has passed, then every reply is checked.
func (h *httpLoad) run(d time.Duration) *phase {
	ph := &phase{}
	perClient := make([][]opRec, clients)
	if h.tr != nil { // /v1/stats brackets the phases of a traced run; a failed fetch surfaces in statsLayers
		ph.stats[0], _ = h.stats()
	}
	mem := markMem()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				rec := h.exec(h.gen.nextOp())
				rec.at = time.Since(start)
				perClient[c] = append(perClient[c], rec)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.mem = mem.delta()
	if h.tr != nil {
		ph.stats[1], _ = h.stats()
	}
	for _, rs := range perClient {
		ph.ops = append(ph.ops, rs...)
	}
	ph.attempted = len(ph.ops)
	ph.wrong = h.verify(ph.ops)
	// Completions per slice of about one second; the ops that finish
	// past d belong to no slice.
	ph.rates = make([]float64, max(1, int(d/time.Second)))
	slice := d / time.Duration(len(ph.rates))
	for i := range ph.ops {
		ph.lat = append(ph.lat, ms(ph.ops[i].lat))
		if s := int(ph.ops[i].at / slice); s < len(ph.rates) {
			ph.rates[s] += 1 / slice.Seconds()
		}
	}
	return ph
}

// verify checks a batch of finished ops against the oracles. It runs
// after the batch, when every upload's version is known, so a query
// that raced a re-upload is held to the version its reply names.
func (h *httpLoad) verify(recs []opRec) (wrong []string) {
	for i := range recs {
		if r := &recs[i]; r.op.Kind == opUpload && r.status == http.StatusCreated {
			h.versions[r.op.Graph][r.version] = r.op.Variant
		}
	}
	for i := range recs {
		if err := h.check(&recs[i]); err != nil {
			wrong = append(wrong, fmt.Sprintf("op %d: %v", recs[i].op.ID, err))
		}
	}
	return wrong
}

func (h *httpLoad) check(r *opRec) error {
	if r.err != "" {
		return errors.New(r.err)
	}
	if r.status != r.op.Status {
		return fmt.Errorf("%s %s: HTTP %d, scheduled %d: %s", r.op.Alg, h.graphName(r.op.Graph), r.status, r.op.Status, r.refusal)
	}
	if r.op.Kind != opQuery {
		return nil
	}
	if r.reply.Degraded {
		return fmt.Errorf("%s %s: degraded answer", r.op.Alg, h.graphName(r.op.Graph))
	}
	variant, ok := h.versions[r.op.Graph][r.version]
	if !ok {
		return fmt.Errorf("%s: reply names unknown version %d", h.graphName(r.op.Graph), r.version)
	}
	t := h.truths[r.op.Graph][variant]
	switch {
	case r.op.Alg == algCC && r.reply.Components != nil:
		return t.checkCC(*r.reply.Components)
	case r.op.Alg == algApproxCut && r.reply.Value != nil:
		return t.checkApproxCut(*r.reply.Value)
	case r.op.Alg == algMinCut && r.reply.Value != nil:
		side, err := sideOf(t.g.N, r.reply.Side)
		if err != nil {
			return err
		}
		return t.checkMinCut(*r.reply.Value, side, false)
	}
	return fmt.Errorf("%s: reply carries no answer", r.op.Alg)
}

// stats fetches /v1/stats from statsBase.
func (h *httpLoad) stats() (*service.EngineStats, error) {
	req, err := http.NewRequest(http.MethodGet, h.statsBase+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if h.token != "" {
		req.Header.Set("Authorization", "Bearer "+h.token)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.EngineStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// kernelLayers reads the kernel block of every executed reply: the BSP
// ledger, the wire accounting and the planner's choice and prediction.
func (h *httpLoad) kernelLayers(traced *phase, m *metrics) {
	var comm, ratio []float64
	var commMs, timeMs, steps, words, wire, raw float64
	kernels := map[string]int{}
	executed := 0
	for i := range traced.ops {
		r := &traced.ops[i]
		if !r.executed() {
			continue
		}
		k := r.reply.Kernel
		executed++
		comm = append(comm, k.CommTimeMs)
		commMs += k.CommTimeMs
		timeMs += k.TimeMs
		steps += float64(k.Supersteps)
		words += float64(k.CommVolume)
		wire += float64(k.WireBytes)
		raw += float64(k.WireRawBytes)
		if k.Kernel != "" {
			kernels[k.Kernel]++
		}
		if k.PredictedMs > 0 && k.TimeMs > 0 {
			ratio = append(ratio, k.PredictedMs/k.TimeMs)
		}
	}
	if executed == 0 {
		return
	}
	n := float64(executed)
	m.set("bsp.comm_share", commMs/timeMs, executed)
	m.setMedian("bsp.comm_ms_p50", comm)
	m.set("bsp.supersteps_per_op", steps/n, executed)
	m.set("bsp.words_per_op", words/n, executed)
	if raw > 0 {
		m.set("transport.wire_ratio", wire/raw, executed)
		m.set("transport.wire_bytes_per_step", wire/steps, executed)
	}
	m.setMedian("planner.pred_ratio_p50", ratio)
	if len(kernels) > 0 { // the planner is on: every portfolio member gets a share, chosen or not
		for _, k := range planner.Kernels() {
			m.set("planner.kernel_share."+k.Name, float64(kernels[k.Name])/n, executed)
		}
	}
}

// statsLayers reads the program's own counters: /v1/stats after the
// traced phase minus /v1/stats before it.
func (h *httpLoad) statsLayers(traced *phase, m *metrics) error {
	before, after := traced.stats[0], traced.stats[1]
	if before == nil || after == nil {
		return errors.New("no /v1/stats around the traced phase")
	}
	b, a := before.Queries.Totals, after.Queries.Totals
	if n := a.Queries - b.Queries; n > 0 {
		m.set("service.cache_hit_share", float64(a.CacheHits-b.CacheHits)/float64(n), int(n))
		m.set("service.coalesced_share", float64(a.Coalesced-b.Coalesced)/float64(n), int(n))
		m.set("service.rejected_share", float64(a.Rejected-b.Rejected)/float64(n), int(n))
	}
	if bp, ap := before.Planner, after.Planner; bp != nil && ap != nil && ap.Decisions > bp.Decisions {
		n := ap.Decisions - bp.Decisions
		m.set("planner.fallback_share", float64(ap.Fallbacks-bp.Fallbacks)/float64(n), int(n))
	}
	return nil
}

// queueWait reports handler entry → kernel start over the executed
// queries of the traced phase, on the spans named spanName.
func (h *httpLoad) queueWait(traced *phase, spanName string, m *metrics) {
	spans := h.tr.byOp(spanName)
	var waits []float64
	for i := range traced.ops {
		r := &traced.ops[i]
		iv, ok := spans[r.op.ID]
		if !ok || !r.executed() {
			continue
		}
		if wait, ok := h.tr.queueWait(iv, r.op.Alg); ok {
			waits = append(waits, float64(wait)/1e6)
		}
	}
	m.setMedian("service.queue_wait_ms_p50", waits)
}

// headline: mean wire bytes of the queries that crossed sockets.
func (h *httpLoad) headline(untraced *phase, m *metrics) error {
	var wire []float64
	for i := range untraced.ops {
		if r := &untraced.ops[i]; r.executed() && r.reply.Kernel.WireRawBytes > 0 {
			wire = append(wire, float64(r.reply.Kernel.WireBytes))
		}
	}
	if len(wire) > 0 {
		m.set("wire_bytes_per_op", stats.Mean(wire), len(wire))
	}
	return nil
}

func (h *httpLoad) layers(traced *phase, m *metrics) error {
	h.kernelLayers(traced, m)
	return h.extra(h, traced, m)
}

// ---- serve_mix ----

// serveGraphs: Zipf rank = index, so the small cut-eligible graphs are
// the hot ones and the 4096-vertex ones the tail.
var serveGraphs = []graphSpec{
	{"ws", 256, 8}, {"ws", 512, 8}, {"er", 1024, 8}, {"rmat", 1024, 16},
	{"ws", 2048, 6}, {"er", 2048, 16}, {"rmat", 4096, 16}, {"ws", 4096, 6},
}

const benchToken = "bench-token"

func newServeMix(o options, tr *tracer) *httpLoad {
	h := &httpLoad{
		name: "serve_mix", o: o, tr: tr,
		mx: mix{
			Graphs: len(serveGraphs), ZipfS: 1.2, CutGraphs: 2,
			CC: 0.70, ApproxCut: 0.15, Unique: 0.25, WarmSeeds: 2,
			Upload: 0.02, Invalid: 0.01, Variants: 2, MaxTrials: 8,
		},
		specs:  scaled(serveGraphs, o),
		warmup: o.size(300, 30),
		start:  startServe,
		extra:  serveLayers,
		token:  benchToken,
		// Quotas high enough never to refuse: the gate's bookkeeping is
		// on the path, its rejections are not part of this workload.
		tenants: tenant.Config{Tenants: []tenant.TenantConfig{{
			Name: "bench", Token: benchToken,
			Quotas: tenant.Quotas{MaxGraphs: 64, MaxConcurrent: 4 * clients, QPS: 1e6, Burst: 1e6},
		}}},
	}
	return h
}

// startServe builds the daemon the way cmd/camcd does in its default
// mode: engine with the static planner (startup calibration included),
// tenant middleware, one loopback listener.
func startServe(h *httpLoad) error {
	cfg := service.Config{Workers: 2, MaxProcessors: 2, Planner: "static"}
	if h.tr != nil {
		cfg.BeforeExec = h.tr.beforeExec
	}
	start := time.Now()
	h.engine = service.NewEngine(cfg)
	h.calibrateS = time.Since(start).Seconds()
	h.closers = append(h.closers, h.engine.Close)
	handler := service.NewHandlerOpts(h.engine, service.HandlerOptions{Tenants: tenant.NewRegistry(h.tenants)})
	if h.tr != nil {
		handler = h.tr.middleware(spanHandler, spanClient, headerOp, handler)
	}
	var err error
	h.base, err = h.listen(handler)
	h.statsBase = h.base
	return err
}

func serveLayers(h *httpLoad, traced *phase, m *metrics) error {
	m.set("planner.calibrate_s", h.calibrateS, 1)
	client, handler := h.tr.byOp(spanClient), h.tr.byOp(spanHandler)
	var httpSelf, hit, self, upload []float64
	plans := map[string]bool{}
	for i := range traced.ops {
		r := &traced.ops[i]
		hs, ok := handler[r.op.ID]
		if !ok {
			continue
		}
		handlerMs := float64(hs.end-hs.start) / 1e6
		httpSelf = append(httpSelf, float64(selfTime(client[r.op.ID], []interval{hs}))/1e6)
		switch {
		case r.op.Kind == opUpload:
			upload = append(upload, handlerMs)
		case r.op.Kind == opQuery && r.reply.Outcome == "cache_hit":
			hit = append(hit, handlerMs)
		case r.executed():
			self = append(self, handlerMs-r.reply.Kernel.TimeMs)
			if r.reply.Kernel.AvoidedCollectives > 0 {
				plans[fmt.Sprintf("%d/%d/%d", r.op.Graph, r.version, r.reply.Kernel.P)] = true
			}
		}
	}
	m.setMedian("http.self_ms_p50", httpSelf)
	m.setMedian("service.hit_path_ms_p50", hit)
	m.setMedian("service.self_ms_p50", self)
	m.setMedian("service.upload_ms_p50", upload)
	// Distinct (graph version, p) pairs whose executed replies consumed
	// a plan: each was built once, in this phase or before it.
	m.set("service.plans_built", float64(len(plans)), len(self))
	h.queueWait(traced, spanHandler, m)

	if err := h.statsLayers(traced, m); err != nil {
		return err
	}
	big, mid := h.truths[len(h.truths)-2][0], h.truths[4][0]
	return serveProbes(h.o, h.engine, h.tenants, big, mid, m)
}

// ---- fleet_tcp ----

// detectorOff is a suspicion threshold the mesh failure detector cannot
// reach (its phi saturates at 300). Ranks that share a process cannot
// lose each other, and under this workload's sustained traffic the
// detector does fire on a healthy loopback connection: it samples
// heartbeat intervals from the last frame of any kind, so busy data
// traffic drags its expected interval to microseconds and the next
// ordinary gap reads as death. Every later query then fails 503. That
// is a defect of the program under test, recorded in README.md; the
// benchmark configures around it so that no scheduled op fails.
const detectorOff = 1000

var fleetGraphs = []graphSpec{{"ws", 256, 8}, {"ws", 2048, 6}, {"ws", 2048, 6}, {"ws", 16384, 4}}

func newFleetTCP(o options, tr *tracer) *httpLoad {
	h := &httpLoad{
		name: "fleet_tcp", o: o, tr: tr,
		mx: mix{
			Graphs: len(fleetGraphs), ZipfS: 1.2, CutGraphs: 1,
			CC: 0.60, ApproxCut: 0.30, Unique: 1, WarmSeeds: 1,
			Variants: 1, MaxTrials: 4, NoCache: true,
		},
		specs:  scaled(fleetGraphs, o),
		warmup: o.size(60, 10),
		start:  startFleet,
		extra:  fleetLayers,
	}
	return h
}

// startFleet collapses a one-shard fleet into this process: two worker
// ranks joined by a real loopback TCP mesh, each behind its own HTTP
// listener, and the routing frontend in front. On two cores that
// measures the program, not the OS scheduling three processes.
func startFleet(h *httpLoad) error {
	const ranks = 2
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	cfg := service.Config{Workers: 2}
	if h.tr != nil {
		cfg.BeforeExec = h.tr.beforeExec
	}
	workers := make([]*shard.Worker, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(i int) { // every rank blocks until the whole mesh is up
			defer wg.Done()
			workers[i], errs[i] = shard.NewWorker(shard.WorkerConfig{
				Rank: i, Addrs: addrs, Epoch: 1, Listener: lns[i], Service: cfg,
				PhiThreshold: detectorOff,
			})
		}(i)
	}
	wg.Wait()
	for i, w := range workers {
		if w != nil {
			h.closers = append(h.closers, w.Close)
		} else {
			lns[i].Close()
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	h.engine = workers[0].Engine()

	urls := make([]string, ranks)
	for i, w := range workers {
		handler := w.Handler()
		if i == 0 && h.tr != nil {
			handler = h.tr.middleware(spanLeader, spanHandler, bodySeedOp, handler)
		}
		var err error
		if urls[i], err = h.listen(handler); err != nil {
			return err
		}
	}
	h.statsBase = urls[0]
	fe, err := shard.NewFrontend([][]string{urls})
	if err != nil {
		return err
	}
	handler := fe.Handler()
	if h.tr != nil {
		handler = h.tr.middleware(spanHandler, spanClient, headerOp, handler)
	}
	if h.base, err = h.listen(handler); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range workers {
		for w.Ready() != nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet not ready: %w", w.Ready())
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func fleetLayers(h *httpLoad, traced *phase, m *metrics) error {
	m.set("shard.replicate_ms_per_graph", stats.Mean(h.uploadMs), len(h.uploadMs))
	client, leader := h.tr.byOp(spanClient), h.tr.byOp(spanLeader)
	var hop, control []float64
	for i := range traced.ops {
		r := &traced.ops[i]
		ls, ok := leader[r.op.ID]
		if !ok {
			continue
		}
		hop = append(hop, float64(selfTime(client[r.op.ID], []interval{ls}))/1e6)
		if r.executed() {
			control = append(control, float64(ls.end-ls.start)/1e6-r.reply.Kernel.TimeMs)
		}
	}
	m.setMedian("shard.frontend_hop_ms_p50", hop)
	m.setMedian("shard.control_ms_p50", control)
	h.queueWait(traced, spanLeader, m)
	if err := h.statsLayers(traced, m); err != nil {
		return err
	}
	return fabricProbes(h.o, m)
}
