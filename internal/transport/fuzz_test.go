package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzParseFrame throws arbitrary bytes at the receive path a hostile
// or corrupt peer controls: frame parsing, data-payload decoding and
// abort decoding.
// The invariant is error-not-panic, with allocation bounded by the
// declared frame length; an accepted data payload is exactly its head
// plus 8 bytes per word the size vector promises.
func FuzzParseFrame(f *testing.F) {
	// A well-formed data frame as a seed.
	words := []uint64{1, 2, 3, 300, 5}
	payload := binary.LittleEndian.AppendUint32(nil, 2)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(words)))
	payload = appendWords(payload, words)
	frameOf := func(payload []byte) []byte {
		buf := appendFrameHeader(nil, frameData, 7, 3, 1)
		buf = append(buf, payload...)
		patchFrameLen(buf)
		return buf
	}
	f.Add(frameOf(payload))
	// The same frame cut inside its size vector.
	f.Add(frameOf(payload[:4+4*2-1]))
	// A body one byte short of 8 × the size vector's count.
	f.Add(frameOf(payload[:len(payload)-1]))
	f.Add(encodeAbort(true, false, "cause"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err == nil {
			for _, gp := range []int{1, 2, 4} {
				for rank := 0; rank < gp; rank++ {
					sizes, words, err := decodeDataPayload(fr.payload, gp, rank, nil)
					if err == nil && (len(words) != int(sizes[rank]) || len(fr.payload) != dataHeadLen(gp)-4-frameHeaderLen+8*len(words)) {
						t.Fatalf("accepted a %dB payload carrying %d words for rank %d, size vector says %d", len(fr.payload), len(words), rank, sizes[rank])
					}
				}
			}
			_, _, _ = decodeAbort(fr.payload)
			fr.release()
		}
		// The unframed bytes through the inner decoders too, so truncation
		// points the framing would reject still get coverage.
		for _, gp := range []int{1, 3} {
			_, _, _ = decodeDataPayload(data, gp, 0, nil)
		}
	})
}

// FuzzHandshake throws arbitrary bytes at the two handshake parsers,
// which read from a socket before the peer is admitted. Properties:
// neither panics; a preamble for the right epoch round-trips rank and
// incarnation; any input either parser accepts begins with exactly the
// bytes its writer would emit, so every other input fails — and fails
// with ErrPeerLost, the error the accept loop and dialers expect.
func FuzzHandshake(f *testing.F) {
	const epoch = 7
	var pre, ack bytes.Buffer
	_ = writePreamble(&pre, 3, epoch, 9)
	_ = writeAck(&ack)
	f.Add(uint32(3), uint64(9), pre.Bytes())
	f.Add(uint32(0), uint64(1), ack.Bytes())
	f.Add(uint32(1<<31), uint64(1<<63), pre.Bytes()[:preambleLen-1])

	f.Fuzz(func(t *testing.T, rank uint32, inc uint64, data []byte) {
		var buf bytes.Buffer
		if err := writePreamble(&buf, int(rank), epoch, inc); err != nil {
			t.Fatal(err)
		}
		gotRank, gotInc, err := readPreamble(bytes.NewReader(buf.Bytes()), epoch)
		if err != nil || gotRank != int(rank) || gotInc != inc {
			t.Fatalf("preamble (rank %d, inc %d) read back as (%d, %d, %v)", rank, inc, gotRank, gotInc, err)
		}
		if _, _, err := readPreamble(bytes.NewReader(buf.Bytes()), epoch+1); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("preamble for another epoch: %v, want ErrPeerLost", err)
		}

		gotRank, gotInc, err = readPreamble(bytes.NewReader(data), epoch)
		if err != nil {
			if !errors.Is(err, ErrPeerLost) {
				t.Fatalf("preamble rejected without ErrPeerLost: %v", err)
			}
		} else {
			buf.Reset()
			_ = writePreamble(&buf, gotRank, epoch, gotInc)
			if !bytes.Equal(buf.Bytes(), data[:preambleLen]) {
				t.Fatalf("accepted preamble %x, canonical form %x", data[:preambleLen], buf.Bytes())
			}
		}
		if err := readAck(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrPeerLost) {
				t.Fatalf("ack rejected without ErrPeerLost: %v", err)
			}
		} else if !bytes.Equal(ack.Bytes(), data[:ackLen]) {
			t.Fatalf("accepted ack %x, canonical form %x", data[:ackLen], ack.Bytes())
		}
	})
}
