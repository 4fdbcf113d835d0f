package transport

import (
	"bytes"
	"math/rand"
	"testing"
)

// encodeDecode runs one payload through the sender-side encoder and the
// receiver-side decoder, returning the codec byte that went on the wire
// and the reconstructed words.
func encodeDecode(t *testing.T, words []uint64) (byte, []uint64) {
	t.Helper()
	buf := appendEncodedPayload(nil, words)
	if len(buf) < 1 {
		t.Fatal("empty encoded payload")
	}
	c, body := buf[0], buf[1:]
	got, err := decodeCodec(c, body, len(words), nil)
	if err != nil {
		t.Fatalf("decode codec %d: %v", c, err)
	}
	return c, got
}

func wordsEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedEdgeWords builds a sorted (u, v, w) triple stream like
// dist.EncodeEdges produces from a sorted edge array.
func sortedEdgeWords(n int) []uint64 {
	words := make([]uint64, 0, 3*n)
	rng := rand.New(rand.NewSource(7))
	u, v := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			u += uint64(rng.Intn(4) + 1)
			v = uint64(rng.Intn(16))
		} else {
			v += uint64(rng.Intn(8) + 1)
		}
		words = append(words, u, v, uint64(rng.Intn(100)+1))
	}
	return words
}

func TestCodecRoundtripAll(t *testing.T) {
	cases := []struct {
		name  string
		words []uint64
		want  byte
	}{
		{"edge stream", sortedEdgeWords(200), codecEdgeDelta},
		{"small values", func() []uint64 {
			w := make([]uint64, 500)
			for i := range w {
				w[i] = uint64(i % 1000)
			}
			return w
		}(), codecPack},
		{"56-bit values", func() []uint64 {
			rng := rand.New(rand.NewSource(5))
			w := make([]uint64, 100)
			for i := range w {
				w[i] = rng.Uint64() >> 8
			}
			return w
		}(), codecPack},
		{"incompressible", func() []uint64 {
			rng := rand.New(rand.NewSource(3))
			w := make([]uint64, 300)
			for i := range w {
				w[i] = rng.Uint64() | 1<<63
			}
			return w
		}(), codecRaw},
		{"tiny goes raw", []uint64{1, 2, 3}, codecRaw},
		{"empty", nil, codecRaw},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, got := encodeDecode(t, tc.words)
			if c != tc.want {
				t.Fatalf("codec %d, want %d", c, tc.want)
			}
			if !wordsEq(got, tc.words) {
				t.Fatalf("roundtrip mismatch: %d words in, %d out", len(tc.words), len(got))
			}
		})
	}
}

// TestCodecNeverBeatenByRaw: the encoder's rewind guarantees the
// on-wire form (codec byte + body) never exceeds the raw encoding plus
// its codec byte, for any payload.
func TestCodecNeverBeatenByRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		words := make([]uint64, n)
		for i := range words {
			switch rng.Intn(3) {
			case 0:
				words[i] = uint64(rng.Intn(256))
			case 1:
				words[i] = rng.Uint64() >> uint(rng.Intn(64))
			default:
				words[i] = rng.Uint64()
			}
		}
		buf := appendEncodedPayload(nil, words)
		if len(buf) > 1+8*len(words) {
			t.Fatalf("trial %d: encoded %dB > raw %dB", trial, len(buf), 1+8*len(words))
		}
		got, err := decodeCodec(buf[0], buf[1:], len(words), nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !wordsEq(got, words) {
			t.Fatalf("trial %d: roundtrip mismatch", trial)
		}
	}
}

func TestIsSortedEdgeStream(t *testing.T) {
	if !isSortedEdgeStream(sortedEdgeWords(50)) {
		t.Fatal("sorted stream rejected")
	}
	if isSortedEdgeStream([]uint64{1, 2}) {
		t.Fatal("ragged length accepted")
	}
	if isSortedEdgeStream([]uint64{2, 1, 9, 1, 1, 9}) {
		t.Fatal("descending u accepted")
	}
	if isSortedEdgeStream([]uint64{1, 5, 9, 1, 2, 9}) {
		t.Fatal("descending v within u-run accepted")
	}
	if isSortedEdgeStream([]uint64{1 << 33, 0, 9}) {
		t.Fatal("64-bit u accepted")
	}
}

func TestDecodeCodecRejectsMalformed(t *testing.T) {
	words := []uint64{300, 1, 2}
	enc := appendEncodedPayload(nil, words)
	cases := []struct {
		name string
		c    byte
		body []byte
		n    int
	}{
		{"negative count", codecRaw, nil, -1},
		{"raw short body", codecRaw, make([]byte, 15), 2},
		{"raw long body", codecRaw, make([]byte, 24), 2},
		{"pack missing width", codecPack, nil, 0},
		{"pack width zero", codecPack, []byte{0, 1, 2}, 2},
		{"pack width nine", codecPack, []byte{9, 1, 2}, 2},
		{"pack short body", codecPack, []byte{2, 1, 2, 3}, 2},
		{"pack long body", codecPack, []byte{1, 1, 2, 3}, 2},
		{"pack count exceeds body", codecPack, []byte{1, 2}, 3},
		{"edge-delta ragged count", codecEdgeDelta, []byte{1, 1, 1, 1}, 4},
		{"edge-delta truncated", codecEdgeDelta, []byte{1, 1, 1, 1}, 6},
		{"unknown codec", 9, []byte{0}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeCodec(tc.c, tc.body, tc.n, nil); err == nil {
				t.Fatal("malformed input decoded without error")
			}
		})
	}
	// And the valid encoding still decodes after all that.
	got, err := decodeCodec(enc[0], enc[1:], len(words), nil)
	if err != nil || !wordsEq(got, words) {
		t.Fatalf("control roundtrip: %v", err)
	}
}

func TestDecodeDataPayloadMalformed(t *testing.T) {
	// A valid frame payload for a 2-rank group, 3 words for rank 1.
	words := []uint64{5, 6, 7}
	valid := binaryLE32(nil, 2)
	valid = binaryLE32(valid, 0)
	valid = binaryLE32(valid, 3)
	valid = binaryLE32(binaryLE32(valid, 4242), 0) // wire stamp
	valid = appendEncodedPayload(valid, words)
	if sizes, stamp, got, err := decodeDataPayload(valid, 2, 1, nil); err != nil || sizes[1] != 3 || stamp != 4242 || !wordsEq(got, words) {
		t.Fatalf("valid payload rejected: %v", err)
	}

	if _, _, _, err := decodeDataPayload(valid, 3, 1, nil); err == nil {
		t.Fatal("group-size mismatch accepted")
	}
	if _, _, _, err := decodeDataPayload(valid, 2, 5, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, _, _, err := decodeDataPayload(valid[:6], 2, 1, nil); err == nil {
		t.Fatal("truncated size vector accepted")
	}
	if _, _, _, err := decodeDataPayload(valid[:18], 2, 1, nil); err == nil {
		t.Fatal("truncated wire stamp accepted")
	}
	// Size vector promising more words than the body can hold
	// (sizes[1] lives at bytes 8..12 of the payload).
	lying := append([]byte(nil), valid...)
	lying[8], lying[9], lying[10], lying[11] = 0xff, 0xff, 0xff, 0x3f
	if _, _, _, err := decodeDataPayload(lying, 2, 1, nil); err == nil {
		t.Fatal("oversized word count accepted")
	}
}

// binaryLE32 appends v little-endian (test-local helper so the cases
// read as byte layouts).
func binaryLE32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// TestPackWidthExact pins the width computation the bench gate's
// compression ratio depends on: exact (a single wide word dominates)
// and tight at byte boundaries.
func TestPackWidthExact(t *testing.T) {
	small := make([]uint64, 64)
	for i := range small {
		small[i] = uint64(i)
	}
	if w := packWidth(small); w != 1 {
		t.Fatalf("1-byte words got width %d", w)
	}
	small[17] = 1 << 62 // one stray wide word must force the full width
	if w := packWidth(small); w != 8 {
		t.Fatalf("stray 63-bit word got width %d", w)
	}
	for _, tc := range []struct {
		v    uint64
		want int
	}{{0, 1}, {0xff, 1}, {0x100, 2}, {1<<56 - 1, 7}, {1 << 56, 8}} {
		if w := packWidth([]uint64{tc.v}); w != tc.want {
			t.Fatalf("packWidth(%#x) = %d, want %d", tc.v, w, tc.want)
		}
	}
}

// TestPackSampledWidthMatchesExact: the encoder guesses the width from
// a sample and verifies during the store pass, but the emitted width
// byte must always equal the exact packWidth answer — including when
// the payload's one wide word hides at a position the sample skips.
func TestPackSampledWidthMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(words []uint64) {
		t.Helper()
		enc := appendEncodedPayload(nil, words)
		exact := packWidth(words)
		switch enc[0] {
		case codecRaw:
			if exact != 8 {
				t.Fatalf("raw emitted for exact width %d", exact)
			}
		case codecPack:
			if int(enc[1]) != exact {
				t.Fatalf("emitted width %d, exact %d", enc[1], exact)
			}
		default:
			t.Fatalf("codec %d", enc[0])
		}
		got, err := decodeCodec(enc[0], enc[1:], len(words), nil)
		if err != nil || !wordsEq(got, words) {
			t.Fatalf("roundtrip: %v", err)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := minCodecWords + rng.Intn(1000)
		words := make([]uint64, n)
		small := uint64(1)<<(8*uint(1+rng.Intn(7))) - 1
		for i := range words {
			words[i] = rng.Uint64() & small
		}
		// A stray wide word at an arbitrary position — usually one the
		// sample misses, forcing the verify-and-re-encode path.
		if trial%3 == 0 {
			words[rng.Intn(n)] = rng.Uint64() | 1<<uint(8+rng.Intn(56))
		}
		check(words)
	}
}

// TestCodecPackRoundtripWidths exercises every pack width end to end,
// including the tail words decoded without the 8-byte fast path.
func TestCodecPackRoundtripWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for width := 1; width <= 7; width++ {
		for _, n := range []int{minCodecWords, 17, 100} {
			words := make([]uint64, n)
			max := uint64(1)<<(8*uint(width)) - 1
			for i := range words {
				words[i] = rng.Uint64() & max
			}
			words[0] = max // pin the width exactly
			c, got := encodeDecode(t, words)
			if c != codecPack && c != codecEdgeDelta {
				t.Fatalf("width %d n %d: codec %d", width, n, c)
			}
			if !wordsEq(got, words) {
				t.Fatalf("width %d n %d: roundtrip mismatch", width, n)
			}
		}
	}
}

// TestAppendEncodedPayloadDeterministic: identical payloads encode to
// identical bytes — the property the wire-bytes bench gate relies on.
func TestAppendEncodedPayloadDeterministic(t *testing.T) {
	words := sortedEdgeWords(128)
	a := appendEncodedPayload(nil, words)
	b := appendEncodedPayload(nil, words)
	if !bytes.Equal(a, b) {
		t.Fatal("non-deterministic encoding")
	}
}
