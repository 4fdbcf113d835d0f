// Command camcd is the graph-analytics daemon: it serves the paper's
// communication-avoiding kernels (connected components, approximate and
// exact minimum cut) over HTTP, with a graph registry, an LRU result
// cache, singleflight coalescing of identical in-flight queries, and
// admission control (bounded queue, fixed worker pool, per-request
// deadlines).
//
// It runs in one of three modes:
//
//	camcd                          single process, in-process BSP machine
//	camcd -worker -rank=R -peers=A0,A1,...
//	                               one rank of a shard group; the group's
//	                               ranks form a TCP mesh and execute every
//	                               query as one distributed BSP machine
//	camcd -frontend -shards=U0,U1/U2,U3
//	                               stateless router: places graphs on
//	                               shards by consistent hashing, sends
//	                               queries to shard leaders, merges stats
//
// Adding -supervise to worker mode wraps the worker in a supervisor
// that respawns it after a crash under the same rank with a bumped
// -incarnation, so the surviving ranks admit the replacement and
// re-replicate its shard graphs. A crash with exit status 86
// (transport.CrashExitCode — a fault-injected crash) respawns without
// the fault spec so chaos drills recover instead of crash-looping.
//
// API (identical in every mode):
//
//	POST /v1/graphs?name=NAME&format=edgelist|snap   register a graph
//	GET  /v1/graphs                                  list graphs with versions + fingerprints
//	POST /v1/query                                   {"graph":..., "algorithm":"cc|mincut|approxcut", ...}
//	GET  /v1/stats                                   serving metrics (JSON)
//	GET  /metrics                                    Prometheus exposition
//	GET  /healthz                                    liveness (worker mode: some mesh peer reachable)
//	GET  /readyz                                     readiness (worker mode: every peer up + graph catch-up done)
//
// With -tenants=config.json (single-process or frontend mode) every
// /v1/* request must carry "Authorization: Bearer <token>" for a
// configured tenant and is admitted against that tenant's quotas:
// missing or unknown tokens get 401, exhausted quotas get 429 with
// Retry-After. /healthz and /metrics stay open for probes and scrapers.
//
// See the README section "Running camcd" for curl examples, including a
// 3-process localhost fleet.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/tenant"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("camcd: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:8387", "HTTP listen address")
		workers     = flag.Int("workers", 0, "kernel worker pool size (0 = CPUs, max 4)")
		queueBound  = flag.Int("queue", 64, "admission-control queue bound")
		cacheCap    = flag.Int("cache", 128, "result cache capacity in entries (-1 disables)")
		maxP        = flag.Int("maxp", 0, "largest per-query BSP machine (0 = CPUs, max 16; single-process mode only)")
		plannerMode = flag.String("planner", "static",
			"query planner mode: off (heuristic p), static (p from cost models fitted at startup); single-process mode only")
		timeout    = flag.Duration("timeout", 60*time.Second, "default per-query deadline")
		maxTimeout = flag.Duration("max-timeout", 10*time.Minute, "largest honored per-query deadline")
		faultSpec  = flag.String("faults", os.Getenv(faults.EnvVar),
			"fault-injection spec for chaos testing, e.g. 'panic@1:3;drop@1:5' (default $"+faults.EnvVar+"; empty disables)")
		tenantsPath = flag.String("tenants", "", "tenant config JSON enabling multi-tenant auth + quotas (single-process and frontend modes)")

		workerMode  = flag.Bool("worker", false, "run as one rank of a shard group")
		rank        = flag.Int("rank", 0, "this worker's rank within the shard group")
		peers       = flag.String("peers", "", "comma-separated mesh addresses of every rank in the group, index = rank (worker mode)")
		epoch       = flag.Uint64("epoch", 1, "deployment generation; mesh handshakes reject mismatched epochs (worker mode)")
		incarnation = flag.Uint64("incarnation", 1, "this worker process's mesh incarnation; a respawned rank must present a higher value than its predecessor (worker mode)")
		supervise   = flag.Bool("supervise", false, "run a supervisor that respawns this worker on crash with a bumped -incarnation (worker mode)")
		_           = flag.Bool("supervised", false, "internal: marks a process spawned by a -supervise parent")

		frontendMode = flag.Bool("frontend", false, "run as the sharding frontend")
		shardSpec    = flag.String("shards", "", "worker base URLs: shards separated by '/', ranks by ',' — first URL of each shard is its leader (frontend mode)")
	)
	flag.Parse()

	if *workerMode && *frontendMode {
		log.Fatal("-worker and -frontend are mutually exclusive")
	}
	if *supervise {
		if !*workerMode {
			log.Fatal("-supervise applies to -worker mode (the other modes are stateless; use your init system)")
		}
		runSupervisor(*incarnation)
	}

	freg, err := faults.Parse(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	if freg.Enabled() {
		log.Printf("FAULT INJECTION ENABLED: %s — this process will deliberately fail", *faultSpec)
	}

	var tenants *tenant.Registry
	if *tenantsPath != "" {
		if *workerMode {
			// Workers sit behind the frontend inside the trust boundary;
			// tenant enforcement belongs on the public edge only, or the
			// frontend's own token would be double-charged.
			log.Fatal("-tenants applies to single-process and frontend modes, not -worker")
		}
		cfg, err := tenant.LoadConfig(*tenantsPath)
		if err != nil {
			log.Fatal(err)
		}
		tenants = tenant.NewRegistry(cfg)
		log.Printf("multi-tenant mode: %d tenant(s) configured", len(cfg.Tenants))
	}

	if _, err := planner.ParseMode(*plannerMode); err != nil {
		log.Fatal(err)
	}
	if *workerMode || *frontendMode {
		// A shard group's machine size and kernel are fixed by its worker
		// group; per-query planning only applies to in-process execution.
		*plannerMode = "off"
	}

	svcCfg := service.Config{
		Workers:        *workers,
		QueueBound:     *queueBound,
		CacheCapacity:  *cacheCap,
		MaxProcessors:  *maxP,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Faults:         freg,
		Planner:        *plannerMode,
	}

	switch {
	case *frontendMode:
		shards, err := parseShards(*shardSpec)
		if err != nil {
			log.Fatal(err)
		}
		fe, err := shard.NewFrontend(shards)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("frontend over %d shard(s)", len(shards))
		h := fe.Handler()
		if tenants != nil {
			fe.SetTenants(tenants)
			h = service.TenantMiddleware(tenants, h)
		}
		serve(*addr, h, func() {})
	case *workerMode:
		addrs := splitNonEmpty(*peers, ",")
		if len(addrs) == 0 {
			log.Fatal("worker mode needs -peers=addr0,addr1,... (mesh addresses, index = rank)")
		}
		if *rank < 0 || *rank >= len(addrs) {
			log.Fatalf("-rank=%d out of range for %d peers", *rank, len(addrs))
		}
		log.Printf("rank %d/%d joining mesh (epoch %d, incarnation %d), listening for peers on %s",
			*rank, len(addrs), *epoch, *incarnation, addrs[*rank])
		w, err := shard.NewWorker(shard.WorkerConfig{
			Rank:        *rank,
			Addrs:       addrs,
			Epoch:       *epoch,
			Incarnation: *incarnation,
			Faults:      freg,
			Service:     svcCfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("mesh up: %d rank(s)", len(addrs))
		serve(*addr, w.Handler(), w.Close)
	default:
		engine := service.NewEngine(svcCfg)
		if pl := engine.Planner(); pl != nil {
			log.Printf("planner %s: calibrated kernels %v", pl.Mode(), pl.Calibrated())
		}
		serve(*addr, service.NewHandlerOpts(engine, service.HandlerOptions{Tenants: tenants}), engine.Close)
	}
}

// parseShards parses the -shards flag: shard groups separated by '/',
// worker base URLs within a group by ','.
func parseShards(spec string) ([][]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("frontend mode needs -shards=url0,url1/url2,... (first URL per shard is the leader)")
	}
	var shards [][]string
	for i, group := range strings.Split(spec, "/") {
		ws := splitNonEmpty(group, ",")
		if len(ws) == 0 {
			return nil, fmt.Errorf("-shards: empty shard group at index %d", i)
		}
		for j, u := range ws {
			if !strings.Contains(u, "://") {
				ws[j] = "http://" + u
			}
		}
		shards = append(shards, ws)
	}
	return shards, nil
}

func splitNonEmpty(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains: HTTP
// first, then the mode's own teardown (engine drain, worker mesh
// close). The drain is bounded so a long-running kernel (exact min cut
// on a large graph) cannot hold shutdown hostage; per-request deadlines
// cancel stragglers from inside anyway.
func serve(addr string, handler http.Handler, drain func()) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           NewLoggingHandler(handler),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("received %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		drained := make(chan struct{})
		go func() {
			drain()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			log.Print("drain timed out: a kernel is still running, exiting anyway")
		}
	}()

	log.Printf("serving on http://%s (POST /v1/graphs, POST /v1/query, GET /v1/stats)", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Print("bye")
}

// NewLoggingHandler wraps h with one access-log line per request.
func NewLoggingHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}
