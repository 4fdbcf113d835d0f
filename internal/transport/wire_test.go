package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// pooledTraffic drives a pool-hostile exchange pattern: every payload
// is handed off with SendOwned (so each superstep displaces staging
// cells into the session's word pool, which the decode path then draws
// from), sizes vary per step so differently-sized buffers recirculate,
// and values range from small ids to full 64-bit words. Returns a
// positional checksum of everything received, which must be
// fabric-independent, and the number of words this rank sent to its
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
				case 0: // small values
					buf = append(buf, uint64(i+dst))
				case 1: // sorted edge-ish triples when n%3 == 0
					buf = append(buf, uint64(i/3), uint64(i%3), uint64(s+1))
				default: // full-width values
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

// TestWireRawBytesMatchesFrameSizes pins the ledger's wire count to
// the raw frame layout: a DATA frame costs its header, the size vector
// and 8 bytes per word. Every rank's ledger carries the run's total the
// moment its last Exchange returns, the same on every rank.
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
		want := uint64(steps * p * (p - 1) * (4 + frameHeaderLen + 4 + 4*p))
		for _, w := range peerWords {
			want += 8 * uint64(w)
		}
		for r, l := range ledgers {
			if l.WireBytes != want {
				t.Errorf("rank %d: ledger wire bytes %d, the run's DATA frames sum to %d", r, l.WireBytes, want)
			}
		}
	})
}

func TestDecodeDataPayloadMalformed(t *testing.T) {
	// A valid frame payload for a 2-rank group, 3 words for rank 1.
	words := []uint64{5, 6, 7}
	valid := binary.LittleEndian.AppendUint32(nil, 2)
	valid = binary.LittleEndian.AppendUint32(valid, 0)
	valid = binary.LittleEndian.AppendUint32(valid, 3)
	valid = appendWords(valid, words)
	if sizes, got, err := decodeDataPayload(valid, 2, 1, nil); err != nil || sizes[1] != 3 || !slices.Equal(got, words) {
		t.Fatalf("valid payload rejected: %v", err)
	}

	if _, _, err := decodeDataPayload(valid, 3, 1, nil); err == nil {
		t.Fatal("group-size mismatch accepted")
	}
	if _, _, err := decodeDataPayload(valid, 2, 5, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, _, err := decodeDataPayload(valid[:6], 2, 1, nil); err == nil {
		t.Fatal("truncated size vector accepted")
	}
	// Bodies that are not exactly 8 bytes per promised word.
	if _, _, err := decodeDataPayload(valid[:len(valid)-1], 2, 1, nil); err == nil {
		t.Fatal("body one byte short accepted")
	}
	if _, _, err := decodeDataPayload(append(valid[:len(valid):len(valid)], 0), 2, 1, nil); err == nil {
		t.Fatal("body one byte long accepted")
	}
	// Size vector promising more words than the body holds
	// (sizes[1] lives at bytes 8..12 of the payload).
	lying := append([]byte(nil), valid...)
	lying[8], lying[9], lying[10], lying[11] = 0xff, 0xff, 0xff, 0x3f
	if _, _, err := decodeDataPayload(lying, 2, 1, nil); err == nil {
		t.Fatal("oversized word count accepted")
	}
}

// TestHandshakeRefusesVersion8 checks that a peer speaking wire version 8
// is refused at the handshake: it orders the supersteps inside Broadcast
// and AllReduce differently, so meshing with it would desynchronise the
// run instead of failing it.
func TestHandshakeRefusesVersion8(t *testing.T) {
	const epoch = 3
	var pre, ack bytes.Buffer
	if err := writePreamble(&pre, 1, epoch, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeAck(&ack); err != nil {
		t.Fatal(err)
	}
	pre.Bytes()[4], ack.Bytes()[4] = 8, 8
	_, _, err := readPreamble(&pre, epoch)
	if !errors.Is(err, ErrPeerLost) || err.Error() != ErrPeerLost.Error()+": protocol version 8, want 9" {
		t.Errorf("v8 preamble: %v, want ErrPeerLost: protocol version 8, want 9", err)
	}
	if err := readAck(&ack); !errors.Is(err, ErrPeerLost) || err.Error() != ErrPeerLost.Error()+": ack protocol version 8, want 9" {
		t.Errorf("v8 ack: %v, want ErrPeerLost: ack protocol version 8, want 9", err)
	}
}
