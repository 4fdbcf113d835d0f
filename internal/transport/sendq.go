package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// The write path (DESIGN.md §4j): a frame is written whole, on the
// sending goroutine, under the peer connection's write mutex. Nothing
// overlaps socket writes with encoding: a BSP superstep's frames only
// have to arrive by the barrier, and Exchange already runs on its own
// goroutine. Because send returns only after the kernel accepted the
// whole frame, any two causally ordered sends to one peer reach the
// socket in order (DATA before a later ABORT, CONTROL before a later
// DATA), which is all the abort protocol and the shard control plane
// require.
//
// Frame buffers come from framePool and return to it once written —
// the zero-copy half of the wire path: payload words are serialized
// exactly once, into a pooled buffer handed to the kernel verbatim.

// framePool recycles frame build/receive buffers across supersteps and
// connections. Buffers above maxPooledBuf are left to the GC so one
// huge exchange cannot pin memory for the mesh's lifetime.
var framePool sync.Pool

const maxPooledBuf = 4 << 20

// frameBufGet returns a buffer with len n (contents arbitrary).
func frameBufGet(n int) []byte {
	if v := framePool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// frameBufPut returns a buffer to the pool.
func frameBufPut(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

type peerConn struct {
	rank int
	conn net.Conn
	once sync.Once
	dead atomic.Bool
	// wmu is held for the whole of one frame's write; a held wmu is how
	// a beacon sees a busy socket.
	wmu sync.Mutex
}

// kill marks the connection dead and closes the socket, which unblocks
// a read pump parked on it and a writer blocked in it. Idempotent —
// every loss path (write failure, read failure, phi sever, drop fault,
// mesh close, rejoin drain) funnels through here.
func (pc *peerConn) kill() {
	pc.once.Do(func() {
		pc.dead.Store(true)
		pc.conn.Close()
	})
}

// send writes one whole frame to the peer on the caller's goroutine,
// waiting for any write already in progress. The caller keeps ownership
// of buf. A failed write kills the connection; the read pump, unblocked
// by the close, then runs the shared loss path.
func (pc *peerConn) send(buf []byte) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	return pc.writeLocked(buf)
}

// beacon writes a heartbeat unless a frame is being written right now:
// data in flight is better proof of life than the beacon.
func (pc *peerConn) beacon(buf []byte) {
	if pc.wmu.TryLock() {
		// A failed write has already killed the connection, which is
		// all a lost beacon has to report.
		_ = pc.writeLocked(buf)
		pc.wmu.Unlock()
	}
}

// writeLocked puts buf on the socket; the caller holds wmu.
func (pc *peerConn) writeLocked(buf []byte) error {
	if pc.dead.Load() {
		return fmt.Errorf("%w: rank %d", ErrPeerLost, pc.rank)
	}
	if _, err := pc.conn.Write(buf); err != nil {
		pc.kill()
		return fmt.Errorf("%w: write to rank %d: %v", ErrPeerLost, pc.rank, err)
	}
	return nil
}
