package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol of the TCP fabric (DESIGN.md §4f, §4i, §4j).
//
// A connection opens with a fixed 25-byte preamble — magic "CAMT",
// protocol version, the dialer's mesh rank, the dialer's machine epoch
// and the dialer's incarnation number — answered by a 5-byte accept
// acknowledgement ("CAMA", version) that tells the dialer it was
// admitted. The connection then carries length-prefixed frames both
// ways for its lifetime. All integers are little-endian.
//
// Both halves carry the version and either side refuses a mismatch, so
// every admitted peer speaks the same frames.
//
// The incarnation number (version 2) is what makes rejoin safe: a
// respawned worker presents a strictly larger incarnation than its
// dead predecessor, so an accepter can tell a legitimate reincarnation
// (or a reconnect after a healed partition, same incarnation) from a
// stale duplicate dialer (lower incarnation, rejected).
//
// Frame layout:
//
//	u32  length of the remainder (kind..payload)
//	u8   kind
//	u64  session epoch
//	u64  superstep within the session
//	u32  sender's mesh rank
//	...  kind-specific payload
//
// Data frames carry the sender's complete per-destination size vector,
// then the payload words, 8 bytes each. The size vector lets every rank
// of a session reconstruct the same p×p size matrix and account the
// superstep's h-relation identically to the in-process fabric's
// finalizer. Because a frame's size is fixed by its word count, the
// same matrix also gives the superstep's wire bytes. Versions 9 and 10
// change only what runs above the frames, which an older peer would read
// out of step: in 10 CC and the exact cut end at the root and two-phase
// Broadcast sends no chunk to the root or its holder; in 9 AllReduce is
// one exchange and Broadcast has no length round. Version 8 dropped
// the payload codecs and the wire stamp; version 5 dropped the header's
// group tag: a session spans the whole mesh.

const (
	wireMagic   = "CAMT"
	wireVersion = 10
	ackMagic    = "CAMA"

	preambleLen = 4 + 1 + 4 + 8 + 8 // magic, version, rank, epoch, incarnation
	ackLen      = 4 + 1             // magic, version

	// Frame kinds.
	frameData      = 1 // superstep size vector + payload words
	frameAbort     = 2 // abort propagation (payload: u8 cancelled, error text)
	frameControl   = 4 // out-of-band job control (payload: opaque bytes)
	frameHeartbeat = 5 // liveness beacon (empty payload)

	frameHeaderLen = 1 + 8 + 8 + 4 // kind..src, after the length prefix

	// maxFrameLen bounds a frame's self-declared length so a corrupt or
	// hostile peer cannot make the pump allocate unboundedly.
	maxFrameLen = 1 << 30

	// frameReadChunk caps how much readFrame allocates before any of a
	// frame's bytes have arrived (see the growth loop there).
	frameReadChunk = 1 << 20
)

// frame is one decoded wire frame. payload aliases raw, the pooled
// receive buffer; release returns raw to framePool once the payload has
// been decoded (or the frame dropped) and must not be called while any
// reference into payload is still live.
type frame struct {
	kind    byte
	epoch   uint64
	step    uint64
	src     int
	payload []byte
	raw     []byte
}

// release recycles the frame's receive buffer. Safe on a zero frame.
func (f *frame) release() {
	if f.raw != nil {
		frameBufPut(f.raw)
		f.raw = nil
		f.payload = nil
	}
}

// writePreamble emits the connection handshake.
func writePreamble(w io.Writer, rank int, epoch, incarnation uint64) error {
	var b [preambleLen]byte
	copy(b[:4], wireMagic)
	b[4] = wireVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(rank))
	binary.LittleEndian.PutUint64(b[9:17], epoch)
	binary.LittleEndian.PutUint64(b[17:25], incarnation)
	_, err := w.Write(b[:])
	return err
}

// readPreamble validates the handshake and returns the dialer's rank
// and incarnation. The accepter checks magic, protocol version, and
// machine epoch; a mismatch is a deployment error surfaced as
// ErrPeerLost. Incarnation admission (stale-dialer rejection) is the
// mesh's job — the wire layer only transports the number.
func readPreamble(r io.Reader, wantEpoch uint64) (rank int, incarnation uint64, err error) {
	var b [preambleLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: handshake read: %w", ErrPeerLost, err)
	}
	if string(b[:4]) != wireMagic {
		return 0, 0, fmt.Errorf("%w: bad handshake magic %q", ErrPeerLost, b[:4])
	}
	if b[4] != wireVersion {
		return 0, 0, fmt.Errorf("%w: protocol version %d, want %d", ErrPeerLost, b[4], wireVersion)
	}
	rank = int(binary.LittleEndian.Uint32(b[5:9]))
	epoch := binary.LittleEndian.Uint64(b[9:17])
	incarnation = binary.LittleEndian.Uint64(b[17:25])
	if epoch != wantEpoch {
		return 0, 0, fmt.Errorf("%w: machine epoch %d, want %d", ErrPeerLost, epoch, wantEpoch)
	}
	return rank, incarnation, nil
}

// writeAck emits the accepter's half of the handshake. The preamble is
// one-way; the ack is what tells a dialer it was admitted rather than
// refused with a silent close.
func writeAck(w io.Writer) error {
	var b [ackLen]byte
	copy(b[:4], ackMagic)
	b[4] = wireVersion
	_, err := w.Write(b[:])
	return err
}

// readAck validates the accepter's acknowledgement.
func readAck(r io.Reader) error {
	var b [ackLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: handshake ack read: %w", ErrPeerLost, err)
	}
	if string(b[:4]) != ackMagic {
		return fmt.Errorf("%w: bad handshake ack magic %q", ErrPeerLost, b[:4])
	}
	if b[4] != wireVersion {
		return fmt.Errorf("%w: ack protocol version %d, want %d", ErrPeerLost, b[4], wireVersion)
	}
	return nil
}

// appendFrameHeader appends the frame header (with a placeholder length
// that encodeFrameLen patches) to buf.
func appendFrameHeader(buf []byte, kind byte, epoch, step uint64, src int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, 0) // length, patched later
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint64(buf, step)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(src))
	return buf
}

// patchFrameLen writes the final frame length into the prefix.
func patchFrameLen(buf []byte) {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
}

// readFrame reads one frame from r into a pooled receive buffer; the
// caller (or whoever it hands the frame to) must release() it after
// decoding.
func readFrame(r io.Reader) (frame, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < frameHeaderLen || n > maxFrameLen {
		return frame{}, fmt.Errorf("frame length %d out of range", n)
	}
	// The self-declared length is untrusted until the bytes actually
	// arrive: allocate at most frameReadChunk up front and grow
	// geometrically as data lands, so a lying prefix costs a bounded
	// allocation instead of n. Frames at or under the chunk size — all
	// realistic traffic — take the exact single-allocation path.
	total := int(n)
	alloc := total
	if alloc > frameReadChunk {
		alloc = frameReadChunk
	}
	body := frameBufGet(alloc)
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			frameBufPut(body)
			return frame{}, err
		}
		read = len(body)
		if read == total {
			break
		}
		next := 2 * read
		if next > total {
			next = total
		}
		grown := frameBufGet(next)
		copy(grown, body)
		frameBufPut(body)
		body = grown
	}
	f := frame{
		kind:    body[0],
		epoch:   binary.LittleEndian.Uint64(body[1:9]),
		step:    binary.LittleEndian.Uint64(body[9:17]),
		src:     int(binary.LittleEndian.Uint32(body[17:21])),
		payload: body[frameHeaderLen:],
		raw:     body,
	}
	return f, nil
}

// appendWords appends words little-endian to buf.
func appendWords(buf []byte, words []uint64) []byte {
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// dataHeadLen is a data frame's size before its words for a group of p
// ranks: length prefix, header, group size and size vector. A frame
// carrying n words is dataHeadLen(p) + 8n bytes.
func dataHeadLen(p int) int { return 4 + frameHeaderLen + 4 + 4*p }

// decodeDataPayload splits a data frame's payload into the sender's
// per-destination size vector (group-sized) and the words destined for
// the receiving rank. alloc provides the word slice (nil → plain make),
// letting the session's word pool back the decode; the returned words
// have exactly the length the size vector promises. Malformed input —
// wrong group size, a truncated size vector, a body that is not exactly
// 8 bytes per promised word — returns an error, never panics.
func decodeDataPayload(payload []byte, groupSize, myRank int, alloc func(int) []uint64) (sizes []uint32, words []uint64, err error) {
	need := dataHeadLen(groupSize) - 4 - frameHeaderLen
	if groupSize <= 0 || myRank < 0 || myRank >= groupSize {
		return nil, nil, fmt.Errorf("data frame decode for rank %d of group size %d", myRank, groupSize)
	}
	if len(payload) < need {
		return nil, nil, fmt.Errorf("data frame payload %dB, want ≥%dB", len(payload), need)
	}
	if gp := int(binary.LittleEndian.Uint32(payload[:4])); gp != groupSize {
		return nil, nil, fmt.Errorf("data frame for group size %d, want %d", gp, groupSize)
	}
	sizes = make([]uint32, groupSize)
	for i := range sizes {
		sizes[i] = binary.LittleEndian.Uint32(payload[4+4*i:])
	}
	body := payload[need:]
	n := int(sizes[myRank])
	// Checked before allocating, so the allocation is bounded by the
	// frame length readFrame already capped.
	if len(body) != 8*n {
		return nil, nil, fmt.Errorf("data frame body %dB, size vector says %d words", len(body), n)
	}
	if alloc == nil {
		alloc = func(n int) []uint64 { return make([]uint64, n) }
	}
	words = alloc(n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(body[8*i:])
	}
	return sizes, words, nil
}

// Abort-payload flag bits (first byte). They carry the originating
// error's typed identity across the wire so errors.Is keeps working on
// the receiving side: which rank noticed a dead peer first must not
// change the error class survivors observe.
const (
	abortFlagCancelled = 1 << 0
	abortFlagPeerLost  = 1 << 1
)

// encodeAbort serializes an abort notification.
func encodeAbort(cancelled, peerLost bool, msg string) []byte {
	buf := make([]byte, 0, 1+len(msg))
	var flags byte
	if cancelled {
		flags |= abortFlagCancelled
	}
	if peerLost {
		flags |= abortFlagPeerLost
	}
	buf = append(buf, flags)
	return append(buf, msg...)
}

// decodeAbort parses encodeAbort's output.
func decodeAbort(payload []byte) (cancelled, peerLost bool, msg string) {
	if len(payload) == 0 {
		return false, false, "unknown cause"
	}
	return payload[0]&abortFlagCancelled != 0, payload[0]&abortFlagPeerLost != 0, string(payload[1:])
}
