package shard

// Worker-side self-healing: the catch-up protocol that re-replicates
// shard graphs onto a reincarnated rank, the liveness/readiness probes
// wired to the mesh failure detector, the /v1/local failover execution
// endpoint, and the camc_fleet_* metric families.
//
// Catch-up is pull-based and leader-sourced. Whenever a non-leader
// rank's connection to the leader is (re)established — first join,
// healed partition, or a respawned process — it sends its registry
// inventory to the leader ("state": name, version, fingerprint per
// graph). The leader diffs that against its own registry and answers
// with one "sync" message carrying every graph the peer is missing or
// holds at an older version, serialized as edge lists. The peer
// registers each at the leader's exact version (Registry.PutVersion),
// so cache keys and fingerprints agree across replicas byte for byte,
// then marks itself caught up. A single sync message keeps the protocol
// atomic: readiness never flips true with a transfer half-applied.
//
// This also subsumes "queueing uploads for dead ranks": the leader's
// registry is the durable copy, so a rank that was dead during an
// upload simply finds the graph in the diff when it rejoins.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/planner"
	"repro/internal/service"
)

// graphState is one inventory entry of a "state" message.
type graphState struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// syncGraph is one re-replicated graph of a "sync" message.
type syncGraph struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Data    string `json:"data"` // edge-list serialization
}

// onPeerUp runs on mesh goroutines when a peer connection is
// (re)established; inc is the peer's admitted incarnation (0 for
// connections this rank dialed).
func (w *Worker) onPeerUp(rank int, inc uint64) {
	if w.rank != 0 && rank == 0 {
		go w.requestCatchup()
	}
}

// onPeerDown runs when the failure detector (or a read error) severs a
// peer connection. Losing the leader link drops readiness: uploads may
// land on the leader while this rank is unreachable, and only the next
// state/sync round-trip proves nothing was missed.
func (w *Worker) onPeerDown(rank int) {
	if w.rank != 0 && rank == 0 {
		w.caughtUp.Store(false)
	}
}

// requestCatchup offers this rank's inventory to the leader. Errors are
// dropped: if the leader link died again the next onPeerUp retries.
func (w *Worker) requestCatchup() {
	<-w.meshUp
	w.sendCtrl(0, ctrlMsg{Type: "state", Rank: w.rank, Graphs: w.inventory()})
}

func (w *Worker) inventory() []graphState {
	stored := w.engine.Registry().List()
	inv := make([]graphState, len(stored))
	for i, sg := range stored {
		inv[i] = graphState{
			Name:        sg.Name,
			Version:     sg.Version,
			Fingerprint: fingerprintOf(sg),
		}
	}
	return inv
}

// fingerprintOf is the content identity used by both anti-entropy
// inventories and the run-announcement handshake.
func fingerprintOf(sg *service.StoredGraph) string {
	return fmt.Sprintf("%016x", sg.Snap.Fingerprint())
}

// serveCatchup is the leader's side: diff the peer's inventory against
// the local registry and ship everything the peer is behind on.
func (w *Worker) serveCatchup(msg ctrlMsg) {
	<-w.meshUp
	have := make(map[string]uint64, len(msg.Graphs))
	for _, gs := range msg.Graphs {
		have[gs.Name] = gs.Version
	}
	var syncs []syncGraph
	for _, sg := range w.engine.Registry().List() {
		if v, ok := have[sg.Name]; ok && v >= sg.Version {
			continue
		}
		var b bytes.Buffer
		if err := graph.WriteEdgeList(&b, sg.Snap.Graph()); err != nil {
			continue
		}
		syncs = append(syncs, syncGraph{Name: sg.Name, Version: sg.Version, Data: b.String()})
	}
	w.catchupSent.Add(uint64(len(syncs)))
	_ = w.sendCtrl(msg.Rank, ctrlMsg{Type: "sync", Sync: syncs})
}

// applyCatchup is the peer's side: register every shipped graph at the
// leader's exact version, then flip readiness. PutVersion rejections
// (a racing direct upload already moved the name past the shipped
// version) are fine — the registry is at least as new as the leader's
// snapshot was.
func (w *Worker) applyCatchup(msg ctrlMsg) {
	<-w.meshUp
	for _, sg := range msg.Sync {
		g, err := graph.ReadEdgeList(strings.NewReader(sg.Data))
		if err != nil {
			continue
		}
		if _, err := w.engine.Registry().PutVersion(sg.Name, sg.Version, g); err == nil {
			w.catchupRecv.Add(1)
		}
	}
	w.caughtUp.Store(true)
}

// Health backs /healthz: alive unless every mesh peer is unreachable —
// a fully isolated rank cannot serve any distributed work, so lying
// "ok" to the prober would keep a useless process in rotation. A
// partially degraded mesh is still healthy (the detector and redial
// loop are working the problem); /readyz is the strict signal.
func (w *Worker) Health() error {
	if w.p == 1 {
		return nil
	}
	if w.mesh.PeersUp() == 0 {
		return fmt.Errorf("unhealthy: all %d mesh peers unreachable", w.p-1)
	}
	return nil
}

// Ready backs /readyz: every peer connected and graph catch-up
// complete. An orchestrator keeps a not-ready process alive (healthz
// still passes) but routes no traffic to it.
func (w *Worker) Ready() error {
	for r := 0; r < w.p; r++ {
		if !w.mesh.PeerUp(r) {
			return fmt.Errorf("not ready: mesh peer rank %d down", r)
		}
	}
	if !w.caughtUp.Load() {
		return errors.New("not ready: graph catch-up in progress")
	}
	return nil
}

// PeerStatus is one mesh peer's liveness as this worker sees it.
type PeerStatus struct {
	Rank        int    `json:"rank"`
	Up          bool   `json:"up"`
	Incarnation uint64 `json:"incarnation"` // last admitted; 0 for dialed links
}

// FleetStats is the worker's self-healing state, embedded under "fleet"
// in /v1/stats.
type FleetStats struct {
	Rank                  int          `json:"rank"`
	P                     int          `json:"p"`
	Leader                bool         `json:"leader"`
	Incarnation           uint64       `json:"incarnation"`
	Peers                 []PeerStatus `json:"peers,omitempty"`
	PeersUp               int          `json:"peers_up"`
	CaughtUp              bool         `json:"caught_up"`
	CatchupGraphsSent     uint64       `json:"catchup_graphs_sent"`
	CatchupGraphsReceived uint64       `json:"catchup_graphs_received"`
	LocalQueries          uint64       `json:"local_queries"`
}

// FleetStats snapshots the worker's mesh and catch-up state.
func (w *Worker) FleetStats() FleetStats {
	fs := FleetStats{
		Rank:                  w.rank,
		P:                     w.p,
		Leader:                w.rank == 0,
		Incarnation:           w.mesh.Incarnation(),
		PeersUp:               w.mesh.PeersUp(),
		CaughtUp:              w.caughtUp.Load(),
		CatchupGraphsSent:     w.catchupSent.Load(),
		CatchupGraphsReceived: w.catchupRecv.Load(),
		LocalQueries:          w.localQueries.Load(),
	}
	for r := 0; r < w.p; r++ {
		if r == w.rank {
			continue
		}
		fs.Peers = append(fs.Peers, PeerStatus{
			Rank:        r,
			Up:          w.mesh.PeerUp(r),
			Incarnation: w.mesh.PeerIncarnation(r),
		})
	}
	return fs
}

// writeFleetMetrics appends the camc_fleet_* families to the /metrics
// exposition.
func (w *Worker) writeFleetMetrics(wr io.Writer) {
	fs := w.FleetStats()
	fmt.Fprintf(wr, "# HELP camc_fleet_peer_up Mesh peer liveness as seen by this rank (1 = connected).\n# TYPE camc_fleet_peer_up gauge\n")
	for _, ps := range fs.Peers {
		up := 0
		if ps.Up {
			up = 1
		}
		fmt.Fprintf(wr, "camc_fleet_peer_up{rank=\"%d\"} %d\n", ps.Rank, up)
	}
	fmt.Fprintf(wr, "# HELP camc_fleet_incarnation This rank's mesh incarnation number.\n# TYPE camc_fleet_incarnation gauge\ncamc_fleet_incarnation %d\n", fs.Incarnation)
	caught := 0
	if fs.CaughtUp {
		caught = 1
	}
	fmt.Fprintf(wr, "# HELP camc_fleet_caught_up Graph catch-up state (1 = in sync with the leader).\n# TYPE camc_fleet_caught_up gauge\ncamc_fleet_caught_up %d\n", caught)
	fmt.Fprintf(wr, "# HELP camc_fleet_catchup_graphs_total Graphs re-replicated by the catch-up protocol.\n# TYPE camc_fleet_catchup_graphs_total counter\n")
	fmt.Fprintf(wr, "camc_fleet_catchup_graphs_total{direction=\"sent\"} %d\n", fs.CatchupGraphsSent)
	fmt.Fprintf(wr, "camc_fleet_catchup_graphs_total{direction=\"received\"} %d\n", fs.CatchupGraphsReceived)
	fmt.Fprintf(wr, "# HELP camc_fleet_local_queries_total Failover queries answered from this rank's local replica.\n# TYPE camc_fleet_local_queries_total counter\ncamc_fleet_local_queries_total %d\n", fs.LocalQueries)
}

// handleLocal serves POST /v1/local: execute a query on this rank's own
// graph replica, bypassing the distributed machine — the frontend's
// failover target when the shard leader is unreachable. Only connected
// components is served: every rank holds the full snapshot, whose p=1
// plan answers CC outright, while rerunning a Karger–Stein trial
// schedule on one rank would be the opposite of load shedding. The
// engine resolves the request as the leader's /v1/query would — what the
// leader rejects (an unknown field, a bad parameter) is the same 400
// here — and it runs on the pooled p=1 shape with that plan: no fault
// injection, no peers to lose. Results bypass the rest of the engine (no
// cache, no coalescing, no admission) and report outcome "failover".
func (w *Worker) handleLocal(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeShardError(rw, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req service.QueryRequest
	if err := service.DecodeQuery(http.MaxBytesReader(rw, r.Body, 1<<20), &req); err != nil {
		writeShardError(rw, bodyStatus(err, http.StatusBadRequest), fmt.Errorf("bad query body: %w", err))
		return
	}
	if req.Algorithm != service.AlgCC {
		writeShardError(rw, http.StatusBadRequest,
			fmt.Errorf("shard: /v1/local serves %q only, not %q", service.AlgCC, req.Algorithm))
		return
	}
	rs, err := w.engine.Resolve(&req)
	if err != nil {
		writeShardError(rw, service.StatusOf(err), err)
		return
	}
	start := time.Now()
	res, err := service.Run(r.Context(), rs.Graph, req.Algorithm, rs.Params, planner.Shape{P: 1, Plan: rs.Graph.Plan(1)})
	if err != nil {
		rw.Header().Set("Retry-After", "1")
		writeShardError(rw, http.StatusServiceUnavailable, err)
		return
	}
	w.localQueries.Add(1)
	writeShardJSON(rw, http.StatusOK, service.NewQueryResponse(&req,
		&service.Reply{Outcome: "failover", Result: res, Latency: time.Since(start)}))
}

func writeShardJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeShardError(w http.ResponseWriter, status int, err error) {
	writeShardJSON(w, status, map[string]string{"error": err.Error()})
}
