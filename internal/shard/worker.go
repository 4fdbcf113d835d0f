package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/faults"
	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/transport"
)

// WorkerConfig configures one worker process — one rank of one shard's
// BSP machine.
type WorkerConfig struct {
	// Rank is this process's rank in the shard group, in [0, len(Addrs)).
	// Rank 0 is the group leader: it serves queries (through the engine's
	// cache/coalescing/admission pipeline) and coordinates the other
	// ranks; every rank serves graph uploads and stats.
	Rank int
	// Addrs lists every rank's mesh listen address, index = rank.
	Addrs []string
	// Epoch is the deployment generation; the mesh handshake rejects
	// peers from a different epoch.
	Epoch uint64
	// Listener, when non-nil, is used instead of listening on
	// Addrs[Rank] (tests pass pre-bound 127.0.0.1:0 listeners).
	Listener net.Listener
	// DialTimeout bounds mesh establishment (default 15s).
	DialTimeout time.Duration
	// Faults, when non-nil, compiles its transport rules into the wire
	// hook of every run this rank participates in (and its Sync rules
	// into leader-side machines through Service.Faults as usual).
	Faults *faults.Registry
	// Service is the base engine configuration. On rank 0 its Executor is
	// replaced by the distributed executor; on peers by a rejecting one.
	Service service.Config
	// JobTimeout bounds a peer rank's share of one distributed run when
	// the leader never aborts it (default: Service.DefaultTimeout, or
	// 60s). Leader-side deadlines propagate faster through the abort
	// protocol; this is the backstop against a vanished leader.
	JobTimeout time.Duration
	// Incarnation is this process's monotonic incarnation number for
	// mesh admission (default 1). A supervisor respawning a crashed rank
	// passes a strictly higher value so the survivors' slots accept the
	// replacement and reject any straggling connection from the corpse.
	Incarnation uint64
	// HeartbeatInterval and PhiThreshold tune the mesh failure detector
	// (zero = transport defaults: 500ms, phi 8).
	HeartbeatInterval time.Duration
	PhiThreshold      float64
	// CrashFn overrides what an injected crash fault does (in-process
	// tests substitute a worker shutdown); nil exits the process with
	// transport.CrashExitCode, which the camcd supervisor recognizes.
	CrashFn func()
}

// ctrlMsg is the JSON job-control protocol riding the mesh's control
// frames. Job control is one message: the leader announces a run
// ("start") and starts its own share at once; each peer checks its
// registry and either joins the run or refuses it by aborting the run's
// session, which reaches every rank as the run's own ABORT frame.
// Catch-up (see selfheal.go): a peer offers its inventory to the leader
// ("state"), and the leader answers with every graph the peer is
// missing ("sync").
type ctrlMsg struct {
	Type    string `json:"type"` // start | state | sync
	Run     uint64 `json:"run"`
	Graph   string `json:"graph,omitempty"`
	Version uint64 `json:"version,omitempty"`
	FP      string `json:"fp,omitempty"` // start: leader's graph fingerprint

	Alg    string            `json:"alg,omitempty"`
	Params planner.RunParams `json:"params,omitempty"`
	Rank   int               `json:"rank,omitempty"`
	Graphs []graphState      `json:"graphs,omitempty"` // state: sender's inventory
	Sync   []syncGraph       `json:"sync,omitempty"`   // sync: graphs the peer lacks
}

// Worker is one rank process of a shard group: a mesh endpoint, the
// job-control handler, and an HTTP-facing service engine.
type Worker struct {
	rank       int
	p          int
	members    []int
	faults     *faults.Registry
	jobTimeout time.Duration

	mesh   *transport.Mesh
	engine *service.Engine

	nextRun atomic.Uint64

	mu     sync.Mutex
	closed bool
	jobs   sync.WaitGroup

	// Self-healing state (see selfheal.go). meshUp gates catch-up
	// goroutines spawned by mesh callbacks: they may fire while NewMesh
	// is still constructing, before w.mesh is assigned.
	meshUp       chan struct{}
	caughtUp     atomic.Bool
	catchupSent  atomic.Uint64 // leader: graphs shipped to rejoining peers
	catchupRecv  atomic.Uint64 // peer: graphs received via catch-up
	localQueries atomic.Uint64 // failover queries answered locally
}

// NewWorker connects the rank into its shard's mesh (blocking until all
// peers are up) and starts the engine. Callers serve Worker.Handler()
// over HTTP and Close() on shutdown.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	p := len(cfg.Addrs)
	w := &Worker{
		rank:       cfg.Rank,
		p:          p,
		members:    make([]int, p),
		faults:     cfg.Faults,
		jobTimeout: cfg.JobTimeout,
		meshUp:     make(chan struct{}),
	}
	for i := range w.members {
		w.members[i] = i
	}
	if w.jobTimeout <= 0 {
		w.jobTimeout = cfg.Service.DefaultTimeout
	}
	if w.jobTimeout <= 0 {
		w.jobTimeout = 60 * time.Second
	}
	// The leader is born caught-up (it is the catch-up source); peers of
	// a 1-rank group have nothing to catch up on. A p>1 peer starts
	// not-ready and flips once its first state/sync round-trip with the
	// leader completes (instant on an empty registry).
	if cfg.Rank == 0 || p == 1 {
		w.caughtUp.Store(true)
	}
	mesh, err := transport.NewMesh(transport.MeshConfig{
		Rank:              cfg.Rank,
		Addrs:             cfg.Addrs,
		MachineEpoch:      cfg.Epoch,
		Listener:          cfg.Listener,
		DialTimeout:       cfg.DialTimeout,
		Control:           w.handleControl,
		Incarnation:       cfg.Incarnation,
		HeartbeatInterval: cfg.HeartbeatInterval,
		PhiThreshold:      cfg.PhiThreshold,
		OnPeerUp:          w.onPeerUp,
		OnPeerDown:        w.onPeerDown,
		CrashFn:           cfg.CrashFn,
	})
	if err != nil {
		return nil, err
	}
	w.mesh = mesh
	svc := cfg.Service
	if cfg.Rank == 0 {
		svc.Executor = &distExecutor{w: w}
	} else {
		svc.Executor = &rejectExecutor{rank: cfg.Rank, p: p}
	}
	w.engine = service.NewEngine(svc)
	// Catch-up goroutines spawned by mesh callbacks (possibly already
	// fired during NewMesh) block on meshUp until both the mesh and the
	// engine fields are assigned.
	close(w.meshUp)
	return w, nil
}

// Rank returns this worker's group rank.
func (w *Worker) Rank() int { return w.rank }

// Engine exposes the worker's service engine (registry, stats).
func (w *Worker) Engine() *service.Engine { return w.engine }

// Handler returns the worker's HTTP API: the standard service surface
// (with /healthz wired to mesh connectivity, /readyz to mesh + catch-up
// state, and the camc_fleet_* metric families) plus /v1/local, the
// frontend's failover target (see selfheal.go).
func (w *Worker) Handler() http.Handler {
	base := service.NewHandlerOpts(w.engine, service.HandlerOptions{
		Health:       w.Health,
		Ready:        w.Ready,
		Fleet:        func() interface{} { return w.FleetStats() },
		ExtraMetrics: w.writeFleetMetrics,
	})
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("/v1/local", w.handleLocal)
	return mux
}

// Close shuts the worker down: engine first (draining queries, which
// aborts their sessions), then the mesh, then any straggling peer jobs.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	w.engine.Close()
	w.mesh.Close()
	w.jobs.Wait()
}

// handleControl runs on mesh read-pump goroutines; it must not block,
// so job execution and refusals move to their own goroutines.
func (w *Worker) handleControl(src int, epoch uint64, payload []byte) {
	var msg ctrlMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	switch msg.Type {
	case "start":
		var refusal error
		sg, err := w.engine.Registry().Get(msg.Graph)
		switch {
		case err != nil:
			refusal = fmt.Errorf("graph %q not registered on rank %d", msg.Graph, w.rank)
		case sg.Version != msg.Version && fingerprintOf(sg) != msg.FP:
			// Version skew alone is benign — startup anti-entropy racing a
			// direct upload can leave identical content at different
			// versions on different ranks — so content identity (the
			// fingerprint) is what gates participation.
			refusal = fmt.Errorf("rank %d holds other content under %q (version %d, leader's %d)",
				w.rank, msg.Graph, sg.Version, msg.Version)
		}
		// A closing worker takes no run: its mesh close fails the
		// leader's run as a lost peer.
		w.mu.Lock()
		closed := w.closed
		if !closed {
			w.jobs.Add(1)
		}
		w.mu.Unlock()
		if !closed {
			go w.runPeerJob(msg, sg, refusal)
		}
	case "state":
		if w.rank == 0 {
			go w.serveCatchup(msg)
		}
	case "sync":
		if src == 0 && w.rank != 0 {
			go w.applyCatchup(msg)
		}
	}
}

func (w *Worker) sendCtrl(dst int, msg ctrlMsg) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	return w.mesh.SendControl(dst, msg.Run, payload)
}

// runPeerJob is a non-leader rank's share of one distributed run: open
// the announced run's session and make the same service.Run call the
// leader makes, on the snapshot checked at "start". A refused run
// aborts the session instead, so the refusal reaches the leader and
// every other peer as the run's ABORT. The result is nil here (no
// global rank 0); errors surface on the leader through the abort
// protocol, so they are deliberately dropped.
func (w *Worker) runPeerJob(job ctrlMsg, sg *service.StoredGraph, refusal error) {
	defer w.jobs.Done()
	sess, err := w.mesh.NewSession(job.Run, w.members)
	if err != nil {
		return
	}
	defer sess.Close()
	if refusal != nil {
		sess.Abort(refusal)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), w.jobTimeout)
	defer cancel()
	w.runOnSession(ctx, sess, sg, job.Alg, job.Params)
}

// runOnSession executes one distributed run's local share on its
// session: wire-fault hook, machine, the algorithm's kernel on the
// rank's own plan of the snapshot. Every rank builds that plan from the
// same content at the same p, so all skip the same collectives.
func (w *Worker) runOnSession(ctx context.Context, sess *transport.Session, sg *service.StoredGraph, alg string, pr planner.RunParams) (*service.QueryResult, error) {
	if w.faults != nil {
		if h := w.faults.WireHook(w.rank); h != nil {
			sess.SetWireHook(h)
		}
	}
	m, err := bsp.NewMachineOver(sess.Root())
	if err != nil {
		return nil, err
	}
	return service.Run(ctx, sg, alg, pr, planner.Shape{Machine: m, Plan: sg.Plan(w.p)})
}

// distExecutor is the leader's service.Executor, sized to the group. A
// query the leader's plan answers (planner.Answers) runs on a pooled
// local machine and never reaches a peer; every other query runs on the
// shard's distributed TCP machine, coordinated through the control
// protocol, warm on each rank's plan.
type distExecutor struct{ w *Worker }

func (d *distExecutor) MachineP() int { return d.w.p }

func (d *distExecutor) Execute(ctx context.Context, sg *service.StoredGraph, alg string, pr planner.RunParams) (*service.QueryResult, error) {
	w := d.w
	if pl := sg.Plan(w.p); planner.Answers(alg, pl) {
		return service.Run(ctx, sg, alg, pr, planner.Shape{P: w.p, Plan: pl})
	}
	run := w.nextRun.Add(1)
	// The session exists before any peer hears of the run, so a peer's
	// refusal or loss aborts it at once.
	sess, err := w.mesh.NewSession(run, w.members)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	start := ctrlMsg{
		Type: "start", Run: run,
		Graph: sg.Name, Version: sg.Version, FP: fingerprintOf(sg),
		Alg: alg, Params: pr,
	}
	for peer := 1; peer < w.p; peer++ {
		if err := w.sendCtrl(peer, start); err != nil {
			sess.Abort(err) // unwinds the peers that already started
			return nil, err // wraps ErrPeerLost → 503 + Retry-After
		}
	}
	return w.runOnSession(ctx, sess, sg, alg, pr)
}

// rejectExecutor answers queries sent to a non-leader worker: routing
// them here is a frontend bug (or an operator poking a peer directly),
// and silently running a private single-process kernel would hide it.
type rejectExecutor struct{ rank, p int }

func (r *rejectExecutor) MachineP() int { return r.p }

func (r *rejectExecutor) Execute(context.Context, *service.StoredGraph, string, planner.RunParams) (*service.QueryResult, error) {
	return nil, fmt.Errorf("%w: worker rank %d is not the shard leader; queries go to rank 0", service.ErrBadRequest, r.rank)
}
