package transport

import (
	"fmt"
	"testing"
)

// pooledTraffic drives a pool-hostile exchange pattern: every payload
// is handed off with SendOwned (so each superstep displaces staging
// cells into the session's word pool, which the decode path then draws
// from), sizes vary per step so differently-sized buffers recirculate,
// and values cover all three codec classes. Returns a positional
// checksum of everything received, which must be fabric- and
// codec-independent, and the number of words this rank sent to its
// peers.
func pooledTraffic(ep Endpoint, steps int) (sum uint64, peerWords int, err error) {
	p := ep.Size()
	r := ep.Rank()
	for s := 0; s < steps; s++ {
		for dst := 0; dst < p; dst++ {
			n := 8 + 32*((s+r+dst)%5)
			buf := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				switch s % 3 {
				case 0: // small values: varint territory
					buf = append(buf, uint64(i+dst))
				case 1: // sorted edge-ish triples when n%3 == 0
					buf = append(buf, uint64(i/3), uint64(i%3), uint64(s+1))
				default: // incompressible
					buf = append(buf, (uint64(s)<<56)|(uint64(r)<<48)|(uint64(i)*0x9e3779b97f4a7c15))
				}
			}
			if dst != r {
				peerWords += len(buf)
			}
			ep.SendOwned(dst, buf)
		}
		if err := ep.Exchange(); err != nil {
			return 0, 0, err
		}
		for src := 0; src < p; src++ {
			for i, w := range ep.Recv(src) {
				sum = sum*1099511628211 + w + uint64(i) + uint64(src)<<32
			}
		}
	}
	return sum, peerWords, nil
}

// TestBufferPoolReuseBitIdentical proves the session word pool is
// invisible to kernels: a pool-hostile pattern over sockets produces
// bit-identical payload streams (positional checksum) and an identical
// ledger to the in-process fabric.
func TestBufferPoolReuseBitIdentical(t *testing.T) {
	const steps = 9
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			sums := make([]uint64, p)
			local := runLocal(t, p, func(ep *LocalEndpoint) error {
				sum, _, err := pooledTraffic(ep, steps)
				sums[ep.Rank()] = sum
				return err
			})
			wantLedger := local.Ledger()

			withMeshes(t, p, func(meshes []*Mesh) {
				tcpSums := make([]uint64, p)
				ledgers := make([]Ledger, p)
				errs := runRanks(p, func(r int) error {
					sess, err := meshes[r].NewSession(1, allMembers(p))
					if err != nil {
						return err
					}
					defer sess.Close()
					root := sess.Root()
					if err := root.Reset(); err != nil {
						return err
					}
					sum, _, err := pooledTraffic(root.Endpoint(r), steps)
					if err != nil {
						return err
					}
					tcpSums[r] = sum
					ledgers[r] = root.Ledger()
					return nil
				})
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				for r := 0; r < p; r++ {
					if tcpSums[r] != sums[r] {
						t.Fatalf("rank %d: tcp checksum %#x != local %#x (pooled buffer leaked stale words)", r, tcpSums[r], sums[r])
					}
					if !ledgerEq(ledgers[r], wantLedger) {
						t.Fatalf("rank %d: tcp ledger %+v != local %+v", r, ledgers[r], wantLedger)
					}
				}
			})
		})
	}
}

// TestWireRawBytesMatchesFrameSizes pins the ledger's wire counts to
// the frame layout: a DATA frame's raw-equivalent cost is its header,
// the size vector, the wire stamp, the codec byte and 8 bytes per word.
// Every rank's ledger carries the run's totals the moment its last
// Exchange returns — the same on every rank — and the codecs must
// shrink what actually crossed the socket.
func TestWireRawBytesMatchesFrameSizes(t *testing.T) {
	const p, steps = 3, 9
	withMeshes(t, p, func(meshes []*Mesh) {
		peerWords := make([]int, p)
		ledgers := make([]Ledger, p)
		errs := runRanks(p, func(r int) error {
			sess, err := meshes[r].NewSession(1, allMembers(p))
			if err != nil {
				return err
			}
			defer sess.Close()
			if err := sess.Reset(); err != nil {
				return err
			}
			if _, peerWords[r], err = pooledTraffic(sess, steps); err != nil {
				return err
			}
			ledgers[r] = sess.Ledger()
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		raw := uint64(steps * p * (p - 1) * dataHeadLen(p))
		for _, w := range peerWords {
			raw += 8 * uint64(w)
		}
		for r, l := range ledgers {
			if l.WireRawBytes != raw {
				t.Errorf("rank %d: ledger raw-equivalent bytes %d, the run's DATA frames sum to %d", r, l.WireRawBytes, raw)
			}
			if l.WireBytes != ledgers[0].WireBytes {
				t.Errorf("rank %d: ledger wire bytes %d, rank 0 says %d", r, l.WireBytes, ledgers[0].WireBytes)
			}
			if l.WireBytes == 0 || l.WireBytes >= l.WireRawBytes {
				t.Errorf("rank %d: codecs did not shrink the wire: %d bytes vs %d raw", r, l.WireBytes, l.WireRawBytes)
			}
		}
	})
}
