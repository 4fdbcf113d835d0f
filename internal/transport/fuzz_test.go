package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseFrame throws arbitrary bytes at the receive path a hostile
// or corrupt peer controls: frame parsing, data-payload decoding
// (through every codec), ledger decoding, and abort decoding.
// The invariant is error-not-panic, with allocation bounded by the
// declared frame length.
func FuzzParseFrame(f *testing.F) {
	// A well-formed data frame as a seed.
	words := []uint64{1, 2, 3, 300, 5}
	payload := binary.LittleEndian.AppendUint32(nil, 2)
	payload = binary.LittleEndian.AppendUint32(payload, 0)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(words)))
	payload = appendEncodedPayload(payload, words, codecMaskAll)
	buf := appendFrameHeader(nil, frameData, 7, 3, 1)
	buf = append(buf, payload...)
	patchFrameLen(buf)
	f.Add(buf)
	f.Add(encodeLedger(10, 20))
	f.Add(encodeAbort(true, false, "cause"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err == nil {
			for _, gp := range []int{1, 2, 4} {
				for rank := 0; rank < gp; rank++ {
					_, _, _ = decodeDataPayload(fr.payload, gp, rank, nil)
				}
			}
			_, _, _ = decodeLedger(fr.payload)
			_, _, _ = decodeAbort(fr.payload)
			fr.release()
		}
		// The unframed bytes through the inner decoders too, so truncation
		// points the framing would reject still get coverage.
		_, _, _ = decodeLedger(data)
		for _, gp := range []int{1, 3} {
			_, _, _ = decodeDataPayload(data, gp, 0, nil)
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
		enc := appendEncodedPayload(nil, words, codecMaskAll)
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
