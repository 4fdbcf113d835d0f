package rng

import "math/bits"

// Bits hands out a Stream's bits one at a time, most significant first:
// the 64 bits of each Uint64 in order, then the next word's. It exists
// for draws that need far fewer than 64 random bits, above all a biased
// coin: Below decides u < keep for a uniform 53-bit u by reading u only
// as far as the first bit where it and keep differ (Knuth and Yao, "The
// complexity of nonuniform random number generation", 1976), which is
// at most 2 bits on average and exactly 1 for keep = 2⁵². Each call
// reads bits no other call reads, so a sequence of coins is independent
// and each has probability exactly keep/2⁵³ — the distribution of
// `Uint64()>>11 < keep`, at a fraction of the stream. The zero value is
// not usable; a Bits is not safe for concurrent use.
type Bits struct {
	s *Stream
	r uint64 // unread bits, left-aligned; the bits below the top n are 0
	n uint   // unread bits in r
}

// NewBits returns a reader of s's bits. It owns s from here on: reading
// s directly as well would hand some bits out twice.
func NewBits(s *Stream) Bits { return Bits{s: s} }

// Used returns how many bits b has handed out, counted from the first
// bit of its stream (so it assumes a fresh stream, as Derive returns).
func (b *Bits) Used() uint64 { return b.s.ctr*128 - uint64(b.s.n)*32 - uint64(b.n) }

// Below reports whether u < keep for the uniform 53-bit u whose bits are
// the reader's next ones, MSB-first, reading only the bits that decide
// it. keep = 0 is false and keep ≥ 2⁵³ true, and neither reads a bit.
func (b *Bits) Below(keep uint64) bool {
	if below, ok := b.TryBelow(keep); ok {
		return below
	}
	// The deciding bit lies past the current word. Every unread bit there
	// equals keep's bit at the same place, so they are spent, keep is
	// shifted past them, and the comparison resumes on a fresh word,
	// which always holds the rest (fewer than 64 significant bits of keep
	// are left).
	k := keep << 11 << b.n
	b.r = b.s.Uint64()
	used, below := decide(b.r, k)
	b.r <<= used
	b.n = 64 - used
	return below
}

// TryBelow is Below for a hot loop: when the unread bits of the current
// word decide u < keep — nearly always; at most 53 bits are needed and
// 2 on average — it returns that (ok) and spends them, and otherwise it
// reads nothing and the caller calls Below. Unlike Below it inlines, so
// the common case costs no call.
func (b *Bits) TryBelow(keep uint64) (below, ok bool) {
	if keep >= 1<<53 {
		return true, true
	}
	used, below := decide(b.r, keep<<11)
	if used <= b.n {
		b.r <<= used
		b.n -= used
		return below, true
	}
	return false, false
}

// decide compares the left-aligned bit strings r and k MSB-first. The
// first bit where they differ settles the comparison — r's bit 0 means
// r < k — unless k has run out of one bits before it, in which case
// r ≥ k after k's last one bit. It returns how many leading bits that
// took and whether r < k. For k = 0 that is 0 bits and false.
func decide(r, k uint64) (used uint, below bool) {
	need := 64 - uint(bits.TrailingZeros64(k))
	if d := uint(bits.LeadingZeros64(r ^ k)); d < need {
		return d + 1, k<<d >= 1<<63
	}
	return need, false
}
