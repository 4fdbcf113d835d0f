package transport

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Payload codecs for the TCP fabric (DESIGN.md §4j).
//
// A DATA frame's word payload is encoded with one of three codecs,
// named by a per-frame codec byte that sits between the size vector and
// the body. The codec changes how many bytes a payload costs on the
// wire and nothing else: the receiver always reconstructs the exact
// word sequence, so the ledger's logical communication volume (words,
// h-relations) is byte-identical to the in-process fabric regardless of
// which codec carried the frame.
//
//   - codecRaw: 8 bytes per word, little-endian. Always legal, the
//     fallback whenever nothing else is smaller.
//   - codecPack: fixed-width little-endian packing — one width byte
//     (the smallest 1..7 that holds every word), then n×width bytes.
//     Wins whenever the payload's largest value is under 2^56 (labels,
//     ranks, counts, vertex ids), and both sides cost ~1ns/word: the
//     encoder is a single OR-scan plus branch-free stores, the decoder
//     a masked 8-byte load per word. Chosen over a varint for exactly
//     that reason — per-byte varint loops cost more CPU than the
//     socket they were saving.
//   - codecEdgeDelta: the payload is a sorted (u, v, w) edge stream as
//     produced by dist.EncodeEdges — u non-decreasing, v non-decreasing
//     within a u-run, u and v 32-bit. Encodes Δu, then v (raw when the
//     u-run changed, Δv inside a run), then w, all as uvarints. The
//     payload class of the sample sort's sorted runs; a few bits per
//     edge instead of 24 bytes.
//
// Every admitted peer runs the same wire version, so every receiver
// decodes all three. The sender picks the codec per frame with a cheap
// heuristic and falls back to raw when the encoded form fails to beat
// 8 bytes/word, so the wire never pays for an incompressible payload.

// Codec identifiers (the per-frame codec byte).
const (
	codecRaw       byte = 0
	codecPack      byte = 1
	codecEdgeDelta byte = 2
)

// EdgeStride is the word stride of an encoded edge stream: (u, v, w)
// per edge, matching dist.EdgeWords. The codec layer recognizes the
// layout structurally so it needs no tagging from the kernels.
const EdgeStride = 3

// minCodecWords is the payload size below which encoding effort cannot
// pay for itself; smaller payloads always go raw.
const minCodecWords = 16

// chooseCodec picks the codec for one payload, returning a pack-width
// *guess* alongside. The guess comes from a deterministic O(n/64)
// sample, so choosing pack costs no full scan; because the sample is a
// subset of the payload the guess can only undershoot the true width,
// and the encoder verifies the true OR during its store pass and
// re-encodes on the rare undershoot — the emitted bytes are always
// identical to what an exact pre-scan would produce.
func chooseCodec(words []uint64) (c byte, width int) {
	if len(words) < minCodecWords {
		return codecRaw, 8
	}
	if isSortedEdgeStream(words) {
		return codecEdgeDelta, 8
	}
	// A sampled width of 8 proves the true width is 8 (OR is monotone
	// over subsets): raw, with no full scan at all.
	if w := widthOf(packSample(words)); w < 8 {
		return codecPack, w
	}
	return codecRaw, 8
}

// packSample ORs a fixed subset of the payload: the first and last 16
// words plus a 64-stride pass. Deterministic (same payload, same
// sample) and positioned where real payloads keep their extremes —
// sorted ids end on the maximum, uniform payloads hit every class in
// 32 words. Callers guarantee len(words) >= minCodecWords.
func packSample(words []uint64) uint64 {
	n := len(words)
	var or uint64
	for _, w := range words[:16] {
		or |= w
	}
	for _, w := range words[n-16:] {
		or |= w
	}
	for i := 0; i < n; i += 64 {
		or |= words[i]
	}
	return or
}

// widthOf converts an OR-accumulator to a byte width (1..8).
func widthOf(or uint64) int {
	return (bits.Len64(or|1) + 7) / 8
}

// isSortedEdgeStream reports whether words is a sorted 32-bit edge
// triple stream — the precondition codecEdgeDelta encodes under.
func isSortedEdgeStream(words []uint64) bool {
	if len(words)%EdgeStride != 0 {
		return false
	}
	var pu, pv uint64
	for i := 0; i < len(words); i += EdgeStride {
		u, v := words[i], words[i+1]
		if u>>32 != 0 || v>>32 != 0 {
			return false
		}
		if u < pu || (u == pu && v < pv) {
			return false
		}
		pu, pv = u, v
	}
	return true
}

// packWidth returns the smallest byte width (1..8) that holds every
// word. The hot path never calls this — appendPacked folds the same
// OR-reduce into its store loop — but it is the reference the tests
// hold the sampled-guess-plus-verify encoder to: the emitted width must
// always equal this exact scan's answer.
func packWidth(words []uint64) int {
	var a, b, c, d, e, f, g, h uint64
	i := 0
	for ; i+8 <= len(words); i += 8 {
		a |= words[i]
		b |= words[i+1]
		c |= words[i+2]
		d |= words[i+3]
		e |= words[i+4]
		f |= words[i+5]
		g |= words[i+6]
		h |= words[i+7]
	}
	for ; i < len(words); i++ {
		a |= words[i]
	}
	return (bits.Len64(a|b|c|d|e|f|g|h|1) + 7) / 8
}

// appendEncodedPayload appends the per-frame codec byte and the encoded
// words. The result is guaranteed no larger than the raw encoding plus
// the codec byte: codecPack is only chosen when its fixed width beats 8
// bytes, and the edge-delta encoder rewinds to raw when the deltas fail
// to shrink the payload.
func appendEncodedPayload(buf []byte, words []uint64) []byte {
	c, width := chooseCodec(words)
	if c == codecRaw {
		buf = append(buf, codecRaw)
		return appendWords(buf, words)
	}
	buf = append(buf, c)
	mark := len(buf)
	switch c {
	case codecPack:
		var or uint64
		buf, or = appendPacked(buf, words, width)
		if aw := widthOf(or); aw > width {
			// The sampled guess undershot the true width — the lanes
			// above bled into each other, so redo the pass at the exact
			// width (or fall to raw when no width under 8 holds the
			// payload). Either way the final bytes match an exact
			// pre-scan; the sample only decides how often the encoder
			// pays for a second pass.
			buf = buf[:mark]
			if aw == 8 {
				buf = buf[:mark-1]
				buf = append(buf, codecRaw)
				return appendWords(buf, words)
			}
			buf, _ = appendPacked(buf, words, aw)
		}
		return buf
	case codecEdgeDelta:
		var pu, pv uint64
		for i := 0; i < len(words); i += EdgeStride {
			u, v, w := words[i], words[i+1], words[i+2]
			du := u - pu
			buf = binary.AppendUvarint(buf, du)
			if du != 0 {
				buf = binary.AppendUvarint(buf, v)
			} else {
				buf = binary.AppendUvarint(buf, v-pv)
			}
			buf = binary.AppendUvarint(buf, w)
			pu, pv = u, v
		}
	}
	if len(buf)-mark >= 8*len(words) {
		buf = buf[:mark-1]
		buf = append(buf, codecRaw)
		return appendWords(buf, words)
	}
	return buf
}

// appendPacked appends the width byte and the fixed-width body, and
// returns the OR of every payload word — the verifier the sampled
// width guess is checked against. Stomp encoding: reserve n*width plus
// 7 slack bytes, store full 8-byte words advancing by width, trim the
// slack. The power-of-two widths fuse several words per store; the
// fused lanes carry no masks, which is exactly why the returned OR
// matters — a word over the width bleeds into its neighbor's lane, and
// the caller re-encodes when the OR proves that happened.
func appendPacked(buf []byte, words []uint64, width int) ([]byte, uint64) {
	buf = append(buf, byte(width))
	base := len(buf)
	buf = growBytes(buf, len(words)*width+7)
	off := base
	i, n := 0, len(words)
	var or uint64
	switch width {
	case 1:
		for ; i+8 <= n; i += 8 {
			w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
			w4, w5, w6, w7 := words[i+4], words[i+5], words[i+6], words[i+7]
			or |= w0 | w1 | w2 | w3 | w4 | w5 | w6 | w7
			v := w0 | w1<<8 | w2<<16 | w3<<24 | w4<<32 | w5<<40 | w6<<48 | w7<<56
			binary.LittleEndian.PutUint64(buf[off:off+8], v)
			off += 8
		}
	case 2:
		for ; i+4 <= n; i += 4 {
			w0, w1, w2, w3 := words[i], words[i+1], words[i+2], words[i+3]
			or |= w0 | w1 | w2 | w3
			binary.LittleEndian.PutUint64(buf[off:off+8], w0|w1<<16|w2<<32|w3<<48)
			off += 8
		}
	case 4:
		for ; i+2 <= n; i += 2 {
			w0, w1 := words[i], words[i+1]
			or |= w0 | w1
			binary.LittleEndian.PutUint64(buf[off:off+8], w0|w1<<32)
			off += 8
		}
	}
	for ; i < n; i++ {
		w := words[i]
		or |= w
		binary.LittleEndian.PutUint64(buf[off:off+8], w)
		off += width
	}
	return buf[:base+len(words)*width], or
}

// growBytes extends buf by n bytes in one step. Unlike append of a
// fresh make, a reslice within capacity skips zeroing — the callers
// overwrite every byte they keep.
func growBytes(buf []byte, n int) []byte {
	if cap(buf)-len(buf) >= n {
		return buf[:len(buf)+n]
	}
	return append(buf, make([]byte, n)...)
}

// growWords extends out by n words in one step and returns the new
// slice plus the writable window — decoding fills words by index, which
// the per-word bounds-and-growth checks of append would roughly triple
// the cost of.
func growWords(out []uint64, n int) (grown, dst []uint64) {
	if cap(out)-len(out) < n {
		grown = make([]uint64, len(out)+n, len(out)+n)
		copy(grown, out)
	} else {
		grown = out[:len(out)+n]
	}
	return grown, grown[len(grown)-n:]
}

// decodeCodec appends exactly n decoded words to out. body must contain
// the whole encoded section and nothing else; truncation, trailing
// bytes, and unknown codecs are errors, never panics (the input crosses
// a trust boundary — see FuzzDecodeCodec).
func decodeCodec(c byte, body []byte, n int, out []uint64) ([]uint64, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative word count %d", n)
	}
	// Every non-raw codec costs ≥1 byte/word, raw exactly 8: a count the
	// body cannot hold is corrupt, and rejecting it first bounds how much
	// the appends below can allocate.
	if c != codecRaw && n > len(body) {
		return nil, fmt.Errorf("payload %dB cannot hold %d words under codec %d", len(body), n, c)
	}
	switch c {
	case codecRaw:
		if len(body) != 8*n {
			return nil, fmt.Errorf("raw payload %dB, size vector says %d words", len(body), n)
		}
		out, dst := growWords(out, n)
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		return out, nil
	case codecPack:
		if len(body) < 1 {
			return nil, fmt.Errorf("pack payload missing width byte")
		}
		width := int(body[0])
		if width < 1 || width > 8 {
			return nil, fmt.Errorf("pack width %d out of range", width)
		}
		body = body[1:]
		if len(body) != n*width {
			return nil, fmt.Errorf("pack payload %dB, want %d words × width %d", len(body), n, width)
		}
		out, dst := growWords(out, n)
		i, off := 0, 0
		// The power-of-two widths split one 8-byte load into several
		// words, mirroring the fused stores on the encode side.
		switch width {
		case 1:
			for ; i+8 <= n; i += 8 {
				v := binary.LittleEndian.Uint64(body[off:])
				dst[i] = v & 0xff
				dst[i+1] = v >> 8 & 0xff
				dst[i+2] = v >> 16 & 0xff
				dst[i+3] = v >> 24 & 0xff
				dst[i+4] = v >> 32 & 0xff
				dst[i+5] = v >> 40 & 0xff
				dst[i+6] = v >> 48 & 0xff
				dst[i+7] = v >> 56
				off += 8
			}
		case 2:
			for ; i+4 <= n; i += 4 {
				v := binary.LittleEndian.Uint64(body[off:])
				dst[i] = v & 0xffff
				dst[i+1] = v >> 16 & 0xffff
				dst[i+2] = v >> 32 & 0xffff
				dst[i+3] = v >> 48
				off += 8
			}
		case 4:
			for ; i+2 <= n; i += 2 {
				v := binary.LittleEndian.Uint64(body[off:])
				dst[i] = v & 0xffffffff
				dst[i+1] = v >> 32
				off += 8
			}
		}
		mask := ^uint64(0) >> (64 - 8*uint(width))
		for ; i < n && off+8 <= len(body); i++ {
			dst[i] = binary.LittleEndian.Uint64(body[off:]) & mask
			off += width
		}
		for ; i < n; i++ { // tail words too close to the end for an 8-byte load
			var w uint64
			for j := width - 1; j >= 0; j-- {
				w = w<<8 | uint64(body[off+j])
			}
			dst[i] = w
			off += width
		}
		return out, nil
	case codecEdgeDelta:
		if n%EdgeStride != 0 {
			return nil, fmt.Errorf("edge-delta payload of %d words (stride %d)", n, EdgeStride)
		}
		var pu, pv uint64
		for i := 0; i < n; i += EdgeStride {
			du, k := binary.Uvarint(body)
			if k <= 0 {
				return nil, fmt.Errorf("edge-delta payload truncated at edge %d", i/EdgeStride)
			}
			body = body[k:]
			vv, k := binary.Uvarint(body)
			if k <= 0 {
				return nil, fmt.Errorf("edge-delta payload truncated at edge %d", i/EdgeStride)
			}
			body = body[k:]
			w, k := binary.Uvarint(body)
			if k <= 0 {
				return nil, fmt.Errorf("edge-delta payload truncated at edge %d", i/EdgeStride)
			}
			body = body[k:]
			u := pu + du
			v := vv
			if du == 0 {
				v = pv + vv
			}
			out = append(out, u, v, w)
			pu, pv = u, v
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("edge-delta payload has %d trailing bytes", len(body))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown payload codec %d", c)
	}
}
