package transport

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The Local fabric is the in-process implementation extracted from
// internal/bsp: sender-owned staging rows, double-buffered mailboxes
// delivered by a pointer swap, and a two-phase sense-reversing barrier
// over cache-line-padded atomics. See the package comment of
// internal/bsp for the full hot-path design rationale; the code here is
// that design, moved behind the Transport seam without changing a single
// ordering or accounting decision.

const cacheLineSize = 64

// padCounter is a cache-line padded plain counter owned by one rank.
// Only the owner writes it; the barrier's happens-before edges order the
// finalizer's reads after the owners' writes.
type padCounter struct {
	v uint64
	_ [cacheLineSize - 8]byte
}

// padAtomic is a cache-line padded atomic word (barrier state).
type padAtomic struct {
	v atomic.Uint64
	_ [cacheLineSize - 8]byte
}

// Local is the in-process fabric: all p ranks live in this process and
// exchange words through shared memory. A Local is sized once and may be
// reused across many runs (Reset); it must not run two bodies
// concurrently.
type Local struct {
	p int

	// Two-phase sense-reversing barrier. arrive counts arrivals of the
	// current superstep; release carries the phase number whose delivery
	// is complete. Both are padded so arrivals and release polling touch
	// distinct cache lines.
	arrive  padAtomic
	release padAtomic

	// Spin budgets, fixed at construction from GOMAXPROCS: waiters spin
	// actively for spinActive iterations, yield the processor until
	// spinYield, then park. With p ≤ GOMAXPROCS waiters virtually never
	// park; oversubscribed machines degrade to scheduler-cooperative
	// yielding and finally a parked wait.
	spinActive int
	spinYield  int

	// Parked-waiter slow path. The mutex guards only parked; it is never
	// touched while spinning succeeds.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	parked   int

	// Abort protocol: abortFlag is polled by spinning waiters and checked
	// by the BSP layer at Sync entry; the cause is stored once under
	// parkMu.
	abortFlag atomic.Bool
	abortErr  error

	// staging[src][dst] collects words rank src queued for dst during the
	// current superstep; inbox holds the previous superstep's delivery.
	// The barrier swaps the two slice headers — delivery is O(1).
	staging [][][]uint64
	inbox   [][][]uint64

	// sentWords[i] counts words rank i sent this superstep
	// (owner-written, finalizer-read).
	sentWords []padCounter

	// Accounting, owned by the finalizing rank of each barrier and read
	// after the run completes.
	ledger Ledger

	eps []LocalEndpoint
}

// NewLocal builds a reusable p-rank in-process fabric. p must be
// positive.
func NewLocal(p int) (*Local, error) {
	if p <= 0 {
		return nil, fmt.Errorf("transport: local fabric with p=%d", p)
	}
	l := &Local{
		p:         p,
		staging:   makeMailbox(p),
		inbox:     makeMailbox(p),
		sentWords: make([]padCounter, p),
		eps:       make([]LocalEndpoint, p),
	}
	l.ledger.HRelations = make([]uint64, 0, 64)
	l.parkCond = sync.NewCond(&l.parkMu)
	// Spin budgets: with enough hardware parallelism the release arrives
	// while waiters actively spin; oversubscribed, yielding is what lets
	// the remaining arrivals run at all, so skip the active phase and park
	// after a bounded number of scheduler round-trips.
	if runtime.GOMAXPROCS(0) >= p {
		l.spinActive = 64
		l.spinYield = l.spinActive + 16*p + 64
	} else {
		l.spinActive = 0
		l.spinYield = 16*p + 64
	}
	for r := 0; r < p; r++ {
		l.eps[r] = LocalEndpoint{l: l, rank: r}
	}
	return l, nil
}

func makeMailbox(p int) [][][]uint64 {
	mb := make([][][]uint64, p)
	for i := range mb {
		mb[i] = make([][]uint64, p)
	}
	return mb
}

// Kind returns KindLocal.
func (l *Local) Kind() string { return KindLocal }

// Size returns the fabric's rank count.
func (l *Local) Size() int { return l.p }

// LocalRanks returns all ranks: the whole fabric lives in-process.
func (l *Local) LocalRanks() []int {
	ranks := make([]int, l.p)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// Endpoint returns rank's handle.
func (l *Local) Endpoint(rank int) Endpoint { return &l.eps[rank] }

// AbortFlag exposes the fabric's abort flag for cheap polling.
func (l *Local) AbortFlag() *atomic.Bool { return &l.abortFlag }

// Reset restores the fabric to its pre-run state, keeping every mailbox
// cell's and scratch buffer's capacity for reuse.
func (l *Local) Reset() error {
	l.arrive.v.Store(0)
	l.release.v.Store(0)
	l.abortFlag.Store(false)
	// Abort may legally race a reset (aborting an idle fabric is
	// documented as harmless), so the fields it touches are cleared under
	// the same lock abort/wakeParked take.
	l.parkMu.Lock()
	l.abortErr = nil
	l.parked = 0
	l.parkMu.Unlock()
	l.ledger.Supersteps = 0
	l.ledger.CommVolume = 0
	l.ledger.HRelations = l.ledger.HRelations[:0]
	for i := range l.sentWords {
		l.sentWords[i].v = 0
	}
	for src := range l.staging {
		for dst := range l.staging[src] {
			l.staging[src][dst] = l.staging[src][dst][:0]
			l.inbox[src][dst] = l.inbox[src][dst][:0]
		}
	}
	for r := range l.eps {
		l.eps[r].sense = 0
	}
	return nil
}

// Abort marks the fabric failed and wakes all waiters: any pending or
// subsequent Exchange returns the cause.
func (l *Local) Abort(err error) {
	l.parkMu.Lock()
	if l.abortErr == nil {
		l.abortErr = err
	}
	l.parkMu.Unlock()
	l.abortFlag.Store(true)
	l.wakeParked()
}

// Err returns the abort cause, or nil.
func (l *Local) Err() error {
	l.parkMu.Lock()
	defer l.parkMu.Unlock()
	return l.abortErr
}

// Ledger returns the run's accounting.
func (l *Local) Ledger() Ledger {
	out := l.ledger
	out.HRelations = append([]uint64(nil), l.ledger.HRelations...)
	return out
}

// Close releases nothing: the in-process fabric holds no external
// resources.
func (l *Local) Close() error { return nil }

// finalize runs on the last arriver, with every other rank blocked: it
// accounts the superstep's h-relation and swaps the mailboxes.
func (l *Local) finalize() {
	p := l.p
	var h uint64
	for dst := 0; dst < p; dst++ {
		var r uint64
		for src := 0; src < p; src++ {
			r += uint64(len(l.staging[src][dst]))
		}
		if r > h {
			h = r
		}
	}
	for i := 0; i < p; i++ {
		if s := l.sentWords[i].v; s > h {
			h = s
		}
	}
	l.ledger.Supersteps++
	l.ledger.CommVolume += h
	l.ledger.HRelations = append(l.ledger.HRelations, h)
	l.inbox, l.staging = l.staging, l.inbox
}

// await blocks until the release sense reaches want: bounded active
// spinning, then cooperative yielding, then a parked wait. Aborts are
// polled throughout so no waiter outlives a failed peer.
func (l *Local) await(want uint64) error {
	for spins := 0; ; spins++ {
		if l.release.v.Load() >= want {
			return nil
		}
		if l.abortFlag.Load() {
			return l.Err()
		}
		if spins < l.spinActive {
			continue
		}
		if spins < l.spinYield {
			runtime.Gosched()
			continue
		}
		l.parkMu.Lock()
		if l.release.v.Load() >= want || l.abortFlag.Load() {
			l.parkMu.Unlock()
			continue
		}
		l.parked++
		l.parkCond.Wait()
		l.parkMu.Unlock()
	}
}

// wakeParked releases any waiters that gave up spinning. The release
// sense is already published, so a waiter that parks between the check
// and the broadcast re-checks under parkMu and never sleeps through it.
func (l *Local) wakeParked() {
	l.parkMu.Lock()
	if l.parked > 0 {
		l.parked = 0
		l.parkCond.Broadcast()
	}
	l.parkMu.Unlock()
}

// LocalEndpoint is one rank's concrete handle on the in-process fabric.
// Its accessors expose the fabric's current staging row and inbox so the
// BSP layer can cache them and keep Send/Recv free of any per-call
// indirection.
type LocalEndpoint struct {
	l     *Local
	rank  int
	sense uint64 // barrier sense (number of Exchanges performed)
	// Endpoints live in one contiguous array and sense is owner-written
	// every superstep; pad so neighbouring ranks' writes never share a
	// cache line.
	_ [cacheLineSize - 24]byte
}

// Rank returns this endpoint's rank.
func (e *LocalEndpoint) Rank() int { return e.rank }

// Size returns the fabric's rank count.
func (e *LocalEndpoint) Size() int { return e.l.p }

// StagingRow returns this rank's current staging row (row[dst] collects
// the words staged for dst). The row's identity changes at every
// Exchange; callers caching it must refresh after each Exchange.
func (e *LocalEndpoint) StagingRow() [][]uint64 { return e.l.staging[e.rank] }

// InboxRef returns the fabric's current inbox (inbox[src][dst]); like
// StagingRow it must be re-fetched after each Exchange.
func (e *LocalEndpoint) InboxRef() [][][]uint64 { return e.l.inbox }

// SentCounter returns the rank-owned staged-words counter backing the
// h-relation accounting.
func (e *LocalEndpoint) SentCounter() *uint64 { return &e.l.sentWords[e.rank].v }

// Send stages a copy of words for rank `to`.
func (e *LocalEndpoint) Send(to int, words []uint64) {
	l := e.l
	if to < 0 || to >= l.p {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, l.p))
	}
	row := l.staging[e.rank]
	row[to] = append(row[to], words...)
	l.sentWords[e.rank].v += uint64(len(words))
}

// SendOwned stages words, adopting the slice when nothing is staged for
// `to` yet. The BSP layer bypasses it: its SendOwned writes the cached
// staging row and recycles the displaced cell into its own free list.
func (e *LocalEndpoint) SendOwned(to int, words []uint64) {
	l := e.l
	if to < 0 || to >= l.p {
		panic(fmt.Sprintf("transport: send to rank %d of %d", to, l.p))
	}
	row := l.staging[e.rank]
	if len(row[to]) == 0 {
		row[to] = words
	} else {
		row[to] = append(row[to], words...)
	}
	l.sentWords[e.rank].v += uint64(len(words))
}

// Recv returns the words delivered from `src` at the last Exchange.
func (e *LocalEndpoint) Recv(src int) []uint64 { return e.l.inbox[src][e.rank] }

// Exchange is the superstep barrier: it blocks until all ranks arrive,
// then atomically delivers all staged words. Post-barrier, every rank
// clears its own staging row: after the swap it holds the payloads
// delivered two supersteps ago, which no one may read anymore. This
// distributes the O(p²) cleanup p ways and keeps every cell's capacity
// with its owning sender.
func (e *LocalEndpoint) Exchange() error {
	l := e.l
	e.sense++
	want := e.sense
	// Phase 1: arrive. The last arriver finalizes the superstep and
	// releases; everyone else waits for the sense word to reach the phase.
	if l.arrive.v.Add(1) == uint64(l.p) {
		l.arrive.v.Store(0)
		l.finalize()
		l.release.v.Store(want) // phase 2: release
		l.wakeParked()
	} else if err := l.await(want); err != nil {
		return err
	}

	row := l.staging[e.rank]
	for dst := range row {
		row[dst] = row[dst][:0]
	}
	l.sentWords[e.rank].v = 0
	return nil
}
