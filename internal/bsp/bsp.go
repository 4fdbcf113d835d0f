// Package bsp implements a Bulk Synchronous Parallel runtime — the
// stand-in for MPI in this reproduction. A machine runs p virtual
// processors; computation proceeds in supersteps: processors compute
// locally, exchange word messages, and meet at a barrier (Sync).
// Messages sent in superstep s are readable only in superstep s+1,
// matching the BSP semantics the paper analyses (§2.1).
//
// The runtime doubles as the measurement apparatus: it accounts the number
// of supersteps, the communication volume of each superstep (the maximum
// number of unit-size words sent or received by any processor — an
// h-relation), and splits wall-clock time into "application" time and
// "communication" time (time spent inside Sync and collectives), which is
// the analogue of the paper's T_MPI metric.
//
// All message payloads are []uint64 words; vertex ids, weights, and labels
// all fit the word model of BSP.
//
// # Transports
//
// Message delivery lives behind internal/transport: the in-process
// fabric (goroutine mailboxes, the default built by NewMachine) and the
// TCP fabric (each rank a separate worker process, see NewMachineOver)
// implement the same superstep contract and derive identical ledgers.
//
// # Hot-path design
//
// Over the in-process fabric a steady-state superstep performs no
// allocation, no cross-goroutine locking, and no interface calls on the
// Send/Recv paths:
//
//   - Staging is sender-owned: each Comm caches its rank's staging row
//     (a contiguous slice of cells written only by this processor), so
//     Send is a plain append with no synchronization and no dynamic
//     dispatch. The cache is refreshed after every Sync, when the
//     fabric's mailbox swap changes the row's identity.
//   - Delivery is a pointer swap of the double-buffered mailboxes. After
//     the swap each processor clears its own staging row (p cells), so the
//     O(p²) cleanup is distributed instead of serialized on the last
//     arriver.
//   - The barrier is a two-phase sense-reversing barrier: arrival is an
//     atomic add on a cache-line-padded counter, release is a store to a
//     padded sense word that waiters observe with bounded spinning
//     (falling back to a parked wait only when oversubscribed). No mutex
//     is touched on the fast path.
//   - Per-processor send-volume counters are cache-line padded and owned
//     by the sender; the happens-before edges of the arrival counter make
//     them safely readable by the finalizing processor.
//   - Payload buffers handed to SendOwned recirculate: displaced mailbox
//     arrays feed a per-processor free list backed by a shared sync.Pool,
//     and Buffer hands them back to payload builders.
//
// Remote fabrics are driven through the transport.Endpoint interface
// instead — there the per-call indirection is noise against socket I/O.
package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// CostModel emulates an interconnect in the classic BSP g/L sense: every
// superstep is charged h·WordTime + SyncLatency of *virtual*
// communication time, where h is the superstep's h-relation. Goroutines
// exchange words through shared memory at near-zero real cost, which
// hides exactly the costs this paper is about; Stats.SimComm makes them
// visible again at configurable interconnect speeds — evaluated from a
// finished run's ledger, so one run answers for every interconnect.
type CostModel struct {
	// WordTime is the per-word gap g (e.g. 4ns ≈ 2 GB/s per processor
	// for 8-byte words).
	WordTime time.Duration
	// SyncLatency is the per-superstep barrier latency L (e.g. 10µs for
	// a cluster interconnect).
	SyncLatency time.Duration
}

// Machine is one communicator's shared state: a handle on a transport
// fabric plus the processors (Comms) this process hosts. A Machine is
// sized once for p processors and may be reused across many Run calls
// when its fabric supports it (the serving layer pools in-process
// machines per request size); it must not run two bodies concurrently.
type Machine struct {
	p int

	tr transport.Transport
	// abortFlag aliases the fabric's flag: cancellation and failure
	// polling is one relaxed atomic load per superstep.
	abortFlag *atomic.Bool

	// faultHook, when non-nil, runs at every Sync entry with the calling
	// processor's (rank, superstep). It is the seam the fault-injection
	// registry (internal/faults) plugs into: a hook may panic (processor
	// failure), sleep (slow processor), or Cancel the machine. nil —
	// the production state — costs a single predictable branch.
	faultHook FaultHook

	// bufPool backs the per-Comm payload free lists (see Comm.Buffer).
	bufPool sync.Pool

	comms []*Comm // indexed by rank; nil for ranks hosted elsewhere
}

// NewMachine builds a reusable p-processor BSP machine over the
// in-process fabric. p must be positive.
func NewMachine(p int) (*Machine, error) {
	if p <= 0 {
		return nil, fmt.Errorf("bsp: machine with p=%d", p)
	}
	tr, err := transport.NewLocal(p)
	if err != nil {
		return nil, fmt.Errorf("bsp: %w", err)
	}
	return NewMachineOver(tr)
}

// NewMachineOver builds a machine over an existing transport fabric. The
// machine hosts Comms only for the fabric's local ranks — over TCP each
// worker process hosts exactly one. The fabric's abort and ledger are
// owned by the machine from here on.
func NewMachineOver(tr transport.Transport) (*Machine, error) {
	p := tr.Size()
	if p <= 0 {
		return nil, fmt.Errorf("bsp: machine with p=%d", p)
	}
	m := &Machine{
		p:         p,
		tr:        tr,
		abortFlag: tr.AbortFlag(),
		comms:     make([]*Comm, p),
	}
	for _, r := range tr.LocalRanks() {
		c := &Comm{m: m, rank: r, ep: tr.Endpoint(r)}
		if lep, ok := c.ep.(*transport.LocalEndpoint); ok {
			c.lep = lep
			c.row = lep.StagingRow()
			c.inboxRef = lep.InboxRef()
			c.sentW = lep.SentCounter()
		}
		m.comms[r] = c
	}
	return m, nil
}

// P returns the machine's processor count.
func (m *Machine) P() int { return m.p }

// Transport returns the fabric kind label (transport.KindLocal,
// transport.KindTCP) the machine runs over.
func (m *Machine) Transport() string { return m.tr.Kind() }

// reset restores the machine to its pre-run state, keeping every mailbox
// cell's and scratch buffer's capacity for reuse. Single-run fabrics
// (TCP) refuse a second reset; the error surfaces from Run.
func (m *Machine) reset() error {
	if err := m.tr.Reset(); err != nil {
		return err
	}
	for _, c := range m.comms {
		if c == nil {
			continue
		}
		c.sense = 0
		c.appTime = 0
		c.commTime = 0
		c.ops = 0
		c.skipColl = 0
		c.skipWords = 0
		c.lastMark = time.Time{}
		// The previous run may have swapped the double-buffered mailboxes
		// an odd number of times; re-fetch the cached identities.
		if c.lep != nil {
			c.row = c.lep.StagingRow()
			c.inboxRef = c.lep.InboxRef()
		}
	}
	return nil
}

// Comm is a processor's handle on a communicator. It is owned by exactly
// one goroutine and must not be shared.
type Comm struct {
	m     *Machine
	rank  int
	sense uint64 // local barrier sense (number of Syncs performed)

	// ep is the transport endpoint; lep is its concrete in-process form
	// when the fabric is local. row/inboxRef/sentW cache the local
	// fabric's current staging row, inbox, and send counter so the
	// Send/Recv hot paths involve no interface calls; they are refreshed
	// after every Sync (the mailbox swap changes their identities) and
	// are nil on remote fabrics.
	ep       transport.Endpoint
	lep      *transport.LocalEndpoint
	row      [][]uint64
	inboxRef [][][]uint64
	sentW    *uint64

	appTime  time.Duration
	commTime time.Duration
	lastMark time.Time
	ops      uint64

	// skipColl / skipWords count the collective exchanges (and the words
	// they would have moved) this processor declared avoided via SkipComm.
	skipColl  int
	skipWords uint64

	// free is this processor's payload free list: mailbox arrays displaced
	// by SendOwned, handed back out by Buffer. Overflow spills to the
	// machine's sync.Pool.
	free [][]uint64

	sc collScratch // collective scratch buffers (collectives.go)
}

// Rank returns this processor's rank in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processors in the communicator.
func (c *Comm) Size() int { return c.m.p }

// Ops adds n to this processor's local-operation counter, the unit of BSP
// computation time used for model validation.
func (c *Comm) Ops(n uint64) { c.ops += n }

// SkipComm records that the caller skipped `collectives` collective
// exchanges, totalling `words` words of communication volume, because a
// precomputed answer (e.g. a snapshot-resident plan) already supplied the
// result. This keeps the BSP ledger honest: a warm run's Stats report both
// what it actually communicated and what it avoided, so "zero volume" is
// distinguishable from "volume moved off the books". The skip decision is
// replicated — every rank of the communicator records the same skip — so
// Stats reports the per-rank maximum, not the sum.
func (c *Comm) SkipComm(collectives int, words uint64) {
	c.skipColl += collectives
	c.skipWords += words
}

// maxFree bounds the per-processor free list; beyond it, displaced
// buffers spill into the machine-wide sync.Pool.
const maxFree = 32

// Buffer returns a word slice of length n (uninitialized beyond reuse)
// for building payloads, drawn from the processor's free list or the
// machine's buffer pool. Hand the filled buffer to SendOwned to return
// its ownership to the runtime; buffers kept by the caller are simply
// garbage-collected.
func (c *Comm) Buffer(n int) []uint64 {
	if k := len(c.free); k > 0 {
		buf := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	if v := c.m.bufPool.Get(); v != nil {
		buf := *(v.(*[]uint64))
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]uint64, n)
}

// recycle takes ownership of a displaced mailbox array.
func (c *Comm) recycle(buf []uint64) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	if len(c.free) < maxFree {
		c.free = append(c.free, buf)
		return
	}
	c.m.bufPool.Put(&buf)
}

// Send queues words for delivery to processor `to` at the next Sync.
// The words are appended to any previously queued payload for the same
// destination within this superstep. The slice is copied.
func (c *Comm) Send(to int, words []uint64) {
	if row := c.row; row != nil {
		if to < 0 || to >= len(row) {
			panic(fmt.Sprintf("bsp: Send to rank %d of %d", to, len(row)))
		}
		row[to] = append(row[to], words...)
		*c.sentW += uint64(len(words))
		return
	}
	c.ep.Send(to, words)
}

// SendOwned queues words like Send but, when nothing is queued yet for
// the destination, adopts the slice instead of copying it. The caller
// transfers ownership: the slice must not be read or written afterwards.
// Use for freshly built payloads on hot paths (large gathers); the
// accounted communication volume is identical to Send's.
func (c *Comm) SendOwned(to int, words []uint64) {
	if row := c.row; row != nil {
		if to < 0 || to >= len(row) {
			panic(fmt.Sprintf("bsp: SendOwned to rank %d of %d", to, len(row)))
		}
		box := row[to]
		if len(box) == 0 {
			c.recycle(box)
			row[to] = words
		} else {
			row[to] = append(box, words...)
		}
		*c.sentW += uint64(len(words))
		return
	}
	c.ep.SendOwned(to, words)
}

// Recv returns the words delivered from processor `from` at the last Sync.
// The slice aliases runtime storage and is valid until the next Sync.
func (c *Comm) Recv(from int) []uint64 {
	if ib := c.inboxRef; ib != nil {
		return ib[from][c.rank]
	}
	return c.ep.Recv(from)
}

// RecvAll returns the per-source delivered payloads (index = source
// rank). The returned slice and its payloads alias runtime storage and
// are valid until the next Sync or RecvAll call.
func (c *Comm) RecvAll() [][]uint64 {
	return c.inboxViews()
}

// inboxViews assembles the per-source view of this processor's inbox
// column into per-Comm scratch (the mailbox is sender-major).
func (c *Comm) inboxViews() [][]uint64 {
	p := c.m.p
	if cap(c.sc.views) < p {
		c.sc.views = make([][]uint64, p)
	}
	c.sc.views = c.sc.views[:p]
	for src := 0; src < p; src++ {
		c.sc.views[src] = c.Recv(src)
	}
	return c.sc.views
}

// errAborted is panicked in workers once any worker has failed, so that
// barrier peers unwind instead of deadlocking.
type abortError struct{ cause error }

func (e abortError) Error() string { return "bsp: aborted: " + e.cause.Error() }

// ErrCancelled tags every run error caused by cooperative cancellation
// (Machine.Cancel or a RunCtx context firing), as opposed to a worker
// failure. Test with errors.Is(err, ErrCancelled).
var ErrCancelled = errors.New("bsp: run cancelled")

// cancelError carries the cancellation cause while matching ErrCancelled.
type cancelError struct{ cause error }

func (e cancelError) Error() string {
	if e.cause == nil {
		return ErrCancelled.Error()
	}
	return ErrCancelled.Error() + ": " + e.cause.Error()
}

func (e cancelError) Is(target error) bool {
	// transport.ErrCancelled too: the TCP fabric uses the match to flag
	// its abort frames as cancels rather than failures.
	return target == ErrCancelled || target == transport.ErrCancelled
}
func (e cancelError) Unwrap() error { return e.cause }

// FaultHook is an injection point called on every processor at Sync
// entry, before the superstep finalizes, with the caller's rank and
// 0-based superstep index. Hooks may panic, stall, or Cancel the
// machine; they must not send or receive, so accounting is unchanged by
// a hook that does not fire.
type FaultHook func(rank int, superstep uint64)

// SetFaultHook installs (or, with nil, removes) the machine's fault
// hook. It must be called while no body is running.
func (m *Machine) SetFaultHook(h FaultHook) { m.faultHook = h }

// Cancel requests cooperative cancellation of the running body: every
// processor unwinds at its next cancellation point (Sync entry, barrier
// wait, or an explicit Aborting poll). Run returns an error matching
// ErrCancelled and wrapping cause. Cancelling an idle machine is
// harmless — the next Run resets the flag. Over TCP the cancellation
// propagates to every peer worker process via the fabric's abort
// frames.
func (m *Machine) Cancel(cause error) {
	m.tr.Abort(cancelError{cause: cause})
}

// Aborting reports whether the machine is unwinding (cancellation or a
// failed peer). It is a single relaxed atomic load, cheap enough for
// kernels to poll inside compute-only phases — long trial loops with no
// intervening Sync — so cancellation latency stays bounded by one
// superstep even when a superstep contains heavy local work.
func (c *Comm) Aborting() bool { return c.m.abortFlag.Load() }

// Sync is the superstep barrier: it blocks until all processors arrive,
// then atomically delivers all queued messages. Time spent here is
// accounted as communication time.
func (c *Comm) Sync() {
	m := c.m
	start := time.Now()
	if !c.lastMark.IsZero() {
		c.appTime += start.Sub(c.lastMark)
	}
	if h := m.faultHook; h != nil {
		h(c.rank, c.sense)
	}
	if m.abortFlag.Load() {
		panic(abortError{m.abortCause()})
	}

	c.sense++
	if lep := c.lep; lep != nil {
		if err := lep.Exchange(); err != nil {
			panic(abortError{wrapAbort(err)})
		}
		// The exchange swapped the double-buffered mailboxes; refresh the
		// cached staging-row and inbox identities.
		c.row = lep.StagingRow()
		c.inboxRef = lep.InboxRef()
	} else if err := c.ep.Exchange(); err != nil {
		panic(abortError{wrapAbort(err)})
	}

	end := time.Now()
	c.commTime += end.Sub(start)
	c.lastMark = end
}

// wrapAbort rewraps a transport abort cause so the run error keeps the
// bsp cancellation contract: a peer process that aborted because of a
// cooperative cancel surfaces as ErrCancelled here too, not as a
// failure.
func wrapAbort(err error) error {
	if err == nil {
		return errors.New("bsp: aborted with no recorded cause")
	}
	var ra *transport.RemoteAbort
	if errors.As(err, &ra) && ra.Cancelled && !errors.Is(err, ErrCancelled) {
		return cancelError{cause: err}
	}
	return err
}

func (m *Machine) abortCause() error {
	return wrapAbort(m.tr.Err())
}

// WorkerStats carries one processor's cost measurements.
type WorkerStats struct {
	Rank     int
	AppTime  time.Duration
	CommTime time.Duration
	Ops      uint64
}

// Stats summarizes one Run.
type Stats struct {
	P int
	// Ledger is the fabric's accounting of the run, as is: Supersteps,
	// CommVolume, HRelations and WireBytes.
	transport.Ledger
	// Transport is the fabric kind the run executed over
	// (transport.KindLocal, transport.KindTCP).
	Transport string
	// MaxAppTime / MaxCommTime are the per-run maxima over processors of
	// cumulative computation and communication (Sync) wall time, matching
	// the paper's "maximum among all participating processors" metric.
	// Over TCP they cover this process's locally hosted ranks.
	MaxAppTime  time.Duration
	MaxCommTime time.Duration
	// MaxOps is the maximum operation count over processors, the measured
	// analogue of BSP computation time.
	MaxOps  uint64
	Workers []WorkerStats
	// AvoidedCollectives / AvoidedCommVolume count the collective
	// exchanges (and the words they would have moved) that the kernels
	// skipped via Comm.SkipComm because precomputed state already held the
	// answer. They are maxima over processors: skips are replicated
	// decisions, so every rank records the same amounts.
	AvoidedCollectives int
	AvoidedCommVolume  uint64
}

// SimComm returns the run's virtual communication time on the emulated
// interconnect cm: Σ over supersteps of h·WordTime + SyncLatency, which
// the ledger's two totals determine exactly.
func (s *Stats) SimComm(cm CostModel) time.Duration {
	return time.Duration(s.CommVolume)*cm.WordTime + time.Duration(s.Supersteps)*cm.SyncLatency
}

// Total returns total wall time (app + comm maxima).
func (s *Stats) Total() time.Duration { return s.MaxAppTime + s.MaxCommTime }

// MaxHRelation returns the largest single-superstep h-relation of the
// run — the bottleneck superstep the BSP cost model charges g·h for.
func (s *Stats) MaxHRelation() uint64 {
	var max uint64
	for _, h := range s.HRelations {
		if h > max {
			max = h
		}
	}
	return max
}

// CommFraction returns MaxCommTime / Total, the T_MPI/T ratio of Figure 1b.
func (s *Stats) CommFraction() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.MaxCommTime) / float64(t)
}

// Run executes body on p virtual processors and returns the machine's cost
// statistics. If any processor panics, all are unwound and the first
// panic is returned as an error. p must be positive.
func Run(p int, body func(c *Comm)) (*Stats, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	return m.Run(body)
}

// Run executes body on the machine's locally hosted virtual processors
// and returns the run's cost statistics. The machine fully resets first,
// so it can be reused across runs (mailbox cells, collective scratch, and
// payload pools keep their capacity — steady-state runs allocate almost
// nothing). A Machine runs one body at a time; concurrent Run calls are a
// caller bug.
func (m *Machine) Run(body func(c *Comm)) (*Stats, error) {
	if err := m.reset(); err != nil {
		return nil, err
	}
	return m.run(body)
}

// RunCtx is Run bound to a context: when ctx is cancelled or its
// deadline fires, the machine is Cancelled and every processor unwinds
// at its next cancellation point; the returned error matches
// ErrCancelled and wraps ctx.Err(). A watcher goroutine does the
// Cancel, and is reaped before RunCtx returns so a pooled machine is
// never cancelled across run boundaries. A body that finishes before
// the cancellation lands still returns its complete (correct,
// cacheable) result with a nil error. A context without cancellation
// degenerates to plain Run.
func (m *Machine) RunCtx(ctx context.Context, body func(c *Comm)) (*Stats, error) {
	if ctx == nil || ctx.Done() == nil {
		return m.Run(body)
	}
	if err := ctx.Err(); err != nil {
		return nil, cancelError{cause: err}
	}
	// Reset before the watcher starts: a cancellation arriving between
	// reset and the first superstep must not be wiped out.
	if err := m.reset(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		select {
		case <-ctx.Done():
			m.Cancel(ctx.Err())
		case <-stop:
		}
	}()
	st, err := m.run(body)
	close(stop)
	watcher.Wait()
	return st, err
}

// run executes body on the already-reset machine.
func (m *Machine) run(body func(c *Comm)) (*Stats, error) {
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for r := 0; r < m.p; r++ {
		c := m.comms[r]
		if c == nil {
			continue
		}
		c.lastMark = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					var err error
					if ae, ok := rec.(abortError); ok {
						err = ae.cause
					} else if e, ok := rec.(error); ok {
						err = fmt.Errorf("bsp: worker %d: %w", c.rank, e)
					} else {
						err = fmt.Errorf("bsp: worker %d: %v", c.rank, rec)
					}
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					m.tr.Abort(err)
				}
			}()
			body(c)
			// Account trailing app time after the last Sync.
			c.appTime += time.Since(c.lastMark)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	st := &Stats{P: m.p, Ledger: m.tr.Ledger(), Transport: m.tr.Kind()}
	for _, c := range m.comms {
		if c == nil {
			continue
		}
		st.Workers = append(st.Workers, WorkerStats{Rank: c.rank, AppTime: c.appTime, CommTime: c.commTime, Ops: c.ops})
		if c.appTime > st.MaxAppTime {
			st.MaxAppTime = c.appTime
		}
		if c.commTime > st.MaxCommTime {
			st.MaxCommTime = c.commTime
		}
		if c.ops > st.MaxOps {
			st.MaxOps = c.ops
		}
		if c.skipColl > st.AvoidedCollectives {
			st.AvoidedCollectives = c.skipColl
		}
		if c.skipWords > st.AvoidedCommVolume {
			st.AvoidedCommVolume = c.skipWords
		}
	}
	return st, nil
}
