package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzParseFrame throws arbitrary bytes at the receive path a hostile
// or corrupt peer controls: frame parsing, data-payload decoding
// (through every codec) and abort decoding.
// The invariant is error-not-panic, with allocation bounded by the
// declared frame length.
func FuzzParseFrame(f *testing.F) {
	// A well-formed data frame as a seed.
	words := []uint64{1, 2, 3, 300, 5}
	payload := binary.LittleEndian.AppendUint32(nil, 2)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(words)))
	payload = binary.LittleEndian.AppendUint64(payload, 1234) // wire stamp
	payload = appendEncodedPayload(payload, words)
	buf := appendFrameHeader(nil, frameData, 7, 3, 1)
	buf = append(buf, payload...)
	patchFrameLen(buf)
	f.Add(buf)
	// The same frame cut inside its wire stamp.
	cut := appendFrameHeader(nil, frameData, 7, 3, 1)
	cut = append(cut, payload[:4+4*2+3]...)
	patchFrameLen(cut)
	f.Add(cut)
	f.Add(encodeAbort(true, false, "cause"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err == nil {
			for _, gp := range []int{1, 2, 4} {
				for rank := 0; rank < gp; rank++ {
					_, _, _, _ = decodeDataPayload(fr.payload, gp, rank, nil)
				}
			}
			_, _, _ = decodeAbort(fr.payload)
			fr.release()
		}
		// The unframed bytes through the inner decoders too, so truncation
		// points the framing would reject still get coverage.
		for _, gp := range []int{1, 3} {
			_, _, _, _ = decodeDataPayload(data, gp, 0, nil)
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

// FuzzDecodeCodec checks two properties: (1) arbitrary bodies under any
// codec byte and word count decode to an error or n words, never a
// panic; (2) every encodable payload roundtrips bit-identically through
// appendEncodedPayload/decodeCodec — the invariant that lets the ledger
// claim logical volume is codec-independent.
func FuzzDecodeCodec(f *testing.F) {
	f.Add(byte(0), []byte{1, 2, 3, 4, 5, 6, 7, 8}, 1)
	f.Add(byte(1), []byte{2, 0x34, 0x12}, 1)
	f.Add(byte(2), []byte{1, 1, 1}, 3)
	f.Add(byte(9), []byte{}, 0)

	f.Fuzz(func(t *testing.T, c byte, body []byte, n int) {
		if n > 1<<20 {
			n = 1 << 20 // keep the word-count bound honest without OOMing the fuzzer
		}
		out, err := decodeCodec(c, body, n, nil)
		if err == nil && len(out) != n {
			t.Fatalf("codec %d decoded %d words, size vector said %d", c, len(out), n)
		}

		// Roundtrip property: reinterpret the fuzzed body as words.
		words := make([]uint64, 0, len(body)/8)
		for i := 0; i+8 <= len(body); i += 8 {
			words = append(words, binary.LittleEndian.Uint64(body[i:]))
		}
		enc := appendEncodedPayload(nil, words)
		if len(enc) > 1+8*len(words) {
			t.Fatalf("encoding grew payload: %dB for %d words", len(enc), len(words))
		}
		got, err := decodeCodec(enc[0], enc[1:], len(words), nil)
		if err != nil {
			t.Fatalf("own encoding rejected (codec %d): %v", enc[0], err)
		}
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("word %d: %#x != %#x (codec %d)", i, got[i], words[i], enc[0])
			}
		}
	})
}
