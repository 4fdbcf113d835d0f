package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, outermost first. A client span is one caller-observed
// round trip; the handler spans are recorded by middleware this
// benchmark wraps around the program's own http.Handlers.
const (
	spanClient  = "client"
	spanHandler = "handler" // serve_mix: tenant gate + engine handler; fleet_tcp: frontend
	spanLeader  = "leader"  // fleet_tcp: the shard leader's handler, child of the frontend span
	spanSolve   = "solve"   // batch workloads: one library call
)

// headerOpID carries the op id from the client to the first handler;
// noOpID marks a request that belongs to no traced op.
const (
	headerOpID = "X-Bench-Op"
	noOpID     = -1
)

// span is one timed interval of one op; spans of an op share its id.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// execStamp is one Config.BeforeExec callback: a kernel of alg is
// about to run on an engine worker.
type execStamp struct {
	alg string
	at  int64
}

// tracer keeps spans in memory and writes them out when the workload
// ends. It records only while on is set, so the same process can run
// an untraced phase first and the difference is the tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	execs []execStamp
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beforeExec is installed as service.Config.BeforeExec in traced runs.
func (t *tracer) beforeExec(alg string) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.execs = append(t.execs, execStamp{alg: alg, at: t.since(time.Now())}) // stamped under the lock: execs stays sorted
	t.mu.Unlock()
}

// headerOp reads the op id the client put on the request.
func headerOp(r *http.Request) int {
	id, err := strconv.Atoi(r.Header.Get(headerOpID))
	if err != nil {
		return noOpID
	}
	return id
}

// bodySeedOp recovers the op id from a query body's seed. The shard
// frontend forwards bodies verbatim but not headers, and fleet_tcp
// gives every query the seed uniqueSeedBase+id, so the seed is the one
// thing that crosses the hop. The body is read and put back.
func bodySeedOp(r *http.Request) int {
	if r.URL.Path != "/v1/query" {
		return noOpID
	}
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return noOpID
	}
	var q struct {
		Seed uint64 `json:"seed"`
	}
	if json.Unmarshal(body, &q) != nil || q.Seed < uniqueSeedBase {
		return noOpID
	}
	return int(q.Seed - uniqueSeedBase)
}

// middleware records one span per request around next.
func (t *tracer) middleware(name, parent string, opOf func(*http.Request) int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id := opOf(r)
		start := time.Now()
		next.ServeHTTP(w, r)
		if id != noOpID {
			t.add(span{Op: id, Name: name, Parent: parent, Start: t.since(start), End: t.since(time.Now())})
		}
	})
}

// byOp indexes the recorded spans of one name by op id.
func (t *tracer) byOp(name string) map[int]interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[int]interval)
	for _, s := range t.spans {
		if s.Name == name {
			m[s.Op] = interval{s.Start, s.End}
		}
	}
	return m
}

// queueWait pairs a handler span of an executed query with the
// BeforeExec stamp inside it: handler entry → kernel start. The hook
// carries no op id, so a span that contains more than one stamp of its
// algorithm (two executed queries of one algorithm in flight at once)
// is ambiguous and skipped.
func (t *tracer) queueWait(iv interval, alg string) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.execs), func(i int) bool { return t.execs[i].at >= iv.start })
	found, at := 0, int64(0)
	for ; i < len(t.execs) && t.execs[i].at <= iv.end; i++ {
		if t.execs[i].alg == alg {
			found++
			at = t.execs[i].at
		}
	}
	return at - iv.start, found == 1
}

// writeSpans dumps every recorded span as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
