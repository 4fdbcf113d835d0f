// Package transport abstracts BSP message delivery behind a Transport
// interface, decoupling the superstep semantics in internal/bsp (staging,
// barrier-synchronized delivery, h-relation accounting) from the fabric
// that moves the words. Two implementations exist:
//
//   - Local: the in-process fabric — sender-owned staging rows,
//     double-buffered mailboxes delivered by pointer swap, and a two-phase
//     sense-reversing barrier. This is the zero-overhead fast path the BSP
//     runtime has always had; internal/bsp reaches into it through
//     concrete types (cached staging rows, no interface calls per Send).
//   - TCP (Mesh/Session): each rank is a separate OS process holding
//     persistent length-prefixed framed connections to its peers. A
//     Session is one run over the whole mesh and is that run's
//     Transport and this process's Endpoint. A superstep's staged words
//     are coalesced into one frame per peer; frames carry the sender's
//     full per-destination size vector, so every rank assembles the same
//     p×p size matrix and computes a ledger (supersteps, per-superstep
//     h-relations, volume) byte-identical to the in-process fabric's.
//     They also carry the bytes their sender has written for the run,
//     so every rank's ledger holds the run's wire traffic at each
//     barrier and a run ends at its last Exchange.
//
// The unit of exchange is the superstep: an Endpoint stages words per
// destination, and Exchange() delivers everything staged fabric-wide and
// blocks until this rank's inbound payloads arrived — the BSP barrier.
// Messages staged in superstep s are readable (Recv) only after the
// Exchange, matching §2.1 of the paper.
package transport

import (
	"errors"
	"strconv"
	"sync/atomic"
)

// Fabric kind labels, reported through Kind() and surfaced in serving
// metrics so local and socket runs are distinguishable in traces.
const (
	KindLocal = "local"
	KindTCP   = "tcp"
)

// ErrPeerLost marks a transport failure caused by losing the connection
// to a peer worker process (connection reset, EOF mid-run, failed
// handshake). The serving layer maps it to a retryable 503, distinct
// from kernel faults and cancellations. Test with errors.Is.
var ErrPeerLost = errors.New("transport: peer connection lost")

// ErrCancelled marks abort causes that represent cooperative
// cancellation rather than failure. The bsp layer's cancellation errors
// match it (via errors.Is), which is how the TCP fabric knows to flag
// its abort frames as cancels so remote peers rewrap them as
// cancellations too — the distinction survives the wire.
var ErrCancelled = errors.New("transport: cancelled")

// RemoteAbort is the error surfaced when a peer process aborted the run
// (its processor panicked, its machine was cancelled, or it lost a mesh
// peer). Cancelled distinguishes cooperative cancellation from failure
// so the BSP layer can rewrap it with its own cancellation sentinel;
// PeerLost preserves the ErrPeerLost identity across the wire, so a
// survivor told about a dead peer by another survivor fails its run the
// same way as the rank that noticed first.
type RemoteAbort struct {
	Rank      int    // mesh rank that originated the abort
	Msg       string // the originating error's text
	Cancelled bool   // true when the origin was a cooperative cancel
	PeerLost  bool   // true when the origin was a lost peer connection
}

func (e *RemoteAbort) Error() string {
	return "transport: remote abort from rank " + strconv.Itoa(e.Rank) + ": " + e.Msg
}

// Is lets errors.Is(err, ErrPeerLost) see through a relayed abort.
func (e *RemoteAbort) Is(target error) bool {
	return target == ErrPeerLost && e.PeerLost
}

// Ledger is a fabric's communication accounting for one run: the ground
// truth the BSP cost model is validated against. Every rank of a fabric
// derives an identical ledger (Local: the finalizing processor computes
// it once; TCP: every process computes it from the same size matrices).
type Ledger struct {
	Supersteps int
	// CommVolume is the sum over supersteps of the h-relation (the largest
	// number of words any rank sent or received that superstep) — the BSP
	// communication volume. HRelations records each superstep's.
	CommVolume uint64
	HRelations []uint64
	// WireBytes counts real bytes moved over sockets (frame headers
	// included), so ledger words and wire traffic can be compared; always
	// zero on the Local fabric.
	WireBytes uint64
	// WireRawBytes counts what the same frames would have cost under
	// the raw (uncompressed) payload codec; WireRawBytes − WireBytes is
	// what the codecs saved. Always zero on the Local fabric.
	WireRawBytes uint64
}

// Endpoint is one rank's handle on a fabric. It is owned by exactly one
// goroutine. The Local fabric's *LocalEndpoint is the concrete fast
// path; remote fabrics are driven through this interface.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size()).
	Rank() int
	// Size returns the fabric's rank count.
	Size() int
	// Send stages a copy of words for delivery to rank `to` at the next
	// Exchange, appending to anything already staged for `to`.
	Send(to int, words []uint64)
	// SendOwned stages words transferring ownership of the slice (no
	// copy when nothing is staged for `to` yet). The caller must not
	// touch the slice afterwards.
	SendOwned(to int, words []uint64)
	// Recv returns the words delivered from rank `src` at the last
	// Exchange. The slice aliases fabric storage, valid until the next
	// Exchange.
	Recv(src int) []uint64
	// Exchange is the superstep barrier: it delivers everything staged
	// fabric-wide, blocks until this rank's inbound payloads for the
	// superstep arrived, and accounts the superstep's h-relation on the
	// fabric ledger. It returns the abort cause if the fabric failed.
	Exchange() error
}

// Transport is a p-rank message fabric for one BSP run. The Local
// fabric hosts all p ranks in-process; a TCP Session hosts exactly the
// one rank this worker process plays, with the rest reached over
// sockets.
type Transport interface {
	// Kind returns the fabric label (KindLocal, KindTCP).
	Kind() string
	// Size returns the fabric's rank count.
	Size() int
	// LocalRanks lists the ranks hosted in this process, ascending.
	LocalRanks() []int
	// Endpoint returns the handle for a locally hosted rank.
	Endpoint(rank int) Endpoint
	// AbortFlag exposes the fabric's abort flag for cheap polling (one
	// relaxed atomic load) on compute-only paths.
	AbortFlag() *atomic.Bool
	// Abort poisons the fabric: pending and future Exchanges return err,
	// parked waiters wake, and (TCP) peers are notified with an ABORT
	// frame. The first cause wins; later calls are no-ops.
	Abort(err error)
	// Err returns the abort cause, or nil.
	Err() error
	// Reset prepares the fabric for a fresh run, keeping buffer
	// capacity. Socket fabrics are single-run and return an error once
	// used.
	Reset() error
	// Ledger returns the run's accounting. Valid after every Exchange:
	// a run's accounting is complete at its last superstep.
	Ledger() Ledger
	// Close releases fabric resources (sockets, session registrations).
	Close() error
}
