package rng

import (
	"math"
	"testing"
)

// bitString is a test-only view of a stream's bits, MSB-first, read
// through plain Uint64 calls on its own copy of the stream.
type bitString struct {
	s     *Stream
	words []uint64
}

func (bs *bitString) bit(pos uint) uint64 {
	for uint(len(bs.words)) <= pos/64 {
		bs.words = append(bs.words, bs.s.Uint64())
	}
	return bs.words[pos/64] >> (63 - pos%64) & 1
}

// window is the 53-bit integer whose bits start at pos.
func (bs *bitString) window(pos uint) uint64 {
	var u uint64
	for j := uint(0); j < 53; j++ {
		u = u<<1 | bs.bit(pos+j)
	}
	return u
}

// refBelow is the comparator Bits.Below implements, one bit at a time:
// u < keep for the 53-bit u starting at pos, and the number of bits it
// takes to know — up to the first bit where u and keep differ, or up to
// keep's last one bit when they agree that far.
func refBelow(bs *bitString, pos uint, keep uint64) (used uint, below bool) {
	for j := uint(0); j < 53; j++ {
		rest := keep & (1<<(53-j) - 1) // keep's bits from position j on
		if rest == 0 {
			return j, false
		}
		kj := keep >> (52 - j) & 1
		if uj := bs.bit(pos + j); uj != kj {
			return j + 1, kj == 1
		}
	}
	return 53, false
}

// bitsRead is how many bits b has handed out.
func bitsRead(b *Bits) uint { return uint(b.Used()) }

// bitsPerCoin is the mean number of bits n coins under keep read from
// one fresh reader; keep 0 draws each keep uniformly from [1, 2⁵³).
func bitsPerCoin(keep uint64, n int, seed uint64) float64 {
	b, keeps := NewBits(New(seed, 0, 0)), New(seed, 1, 0)
	for i := 0; i < n; i++ {
		k := keep
		if k == 0 {
			k = keeps.Uint64()>>11 | 1
		}
		b.Below(k)
	}
	return float64(b.Used()) / float64(n)
}

// checkBelow runs Below(keep) on b and holds it to the reference: the
// answer is the 53-bit window at b's position compared with keep, and
// exactly refBelow's bits are spent.
func checkBelow(t *testing.T, b *Bits, bs *bitString, keep uint64) {
	t.Helper()
	pos := bitsRead(b)
	wantUsed, want := refBelow(bs, pos, keep)
	if w := bs.window(pos) < keep; w != want {
		t.Fatalf("reference disagrees with itself at bit %d, keep %#x", pos, keep)
	}
	got := b.Below(keep)
	if used := bitsRead(b) - pos; got != want || used != wantUsed {
		t.Fatalf("bit %d keep %#x: Below = %v after %d bits, want %v after %d (window %#x)",
			pos, keep, got, used, want, wantUsed, bs.window(pos))
	}
}

// belowKeeps are the thresholds the exactness tests cover: every power of
// two, both ends of the range, and runs of one bits that make a
// comparison read deep.
func belowKeeps() []uint64 {
	ks := []uint64{0, 1, 2, 3, 1<<53 - 1, 1<<53 - 2, 1<<52 + 1, 0x15555555555555, 0xaaaaaaaaaaaaa}
	for k := 0; k < 53; k++ {
		ks = append(ks, 1<<k, 1<<k-1|1<<k)
	}
	return ks
}

// TestBitsBelowFresh: on a fresh reader Below(keep) is exactly "the
// stream's first 53 bits < keep", i.e. Uint64()>>11 < keep — for every
// listed keep, for random keeps, and for the keeps next to the window
// itself, where the comparison reads all 53 bits.
func TestBitsBelowFresh(t *testing.T) {
	src := New(7, 1, 2)
	for seed := uint64(1); seed <= 200; seed++ {
		u := New(seed, 3, 4).Uint64() >> 11
		keeps := append(belowKeeps(), src.Uint64()>>11, u, u+1, u-1, u|1, u&^1)
		for _, keep := range keeps {
			keep &= 1<<53 - 1
			b, bs := NewBits(New(seed, 3, 4)), &bitString{s: New(seed, 3, 4)}
			if want := keep > u; b.Below(keep) != want {
				t.Fatalf("seed %d keep %#x: Below on a fresh reader = %v, Uint64()>>11 = %#x", seed, keep, !want, u)
			}
			b = NewBits(New(seed, 3, 4))
			checkBelow(t, &b, bs, keep)
		}
	}
}

// TestBitsBelowSequence runs long sequences of comparisons through one
// reader, so they start at every offset in a word and straddle refills:
// a run of 1-bit coins moves the position by j first, then the keeps
// alternate between a shallow one and the 53-bit window at the current
// position (u == keep: read to keep's last one bit, often past the
// reservoir).
func TestBitsBelowSequence(t *testing.T) {
	src := New(11, 0, 0)
	for j := 0; j < 130; j++ {
		s := New(uint64(j), 9, 9)
		b, bs := NewBits(s), &bitString{s: New(uint64(j), 9, 9)}
		for i := 0; i < j; i++ {
			checkBelow(t, &b, bs, 1<<52)
		}
		for i := 0; i < 300; i++ {
			var keep uint64
			switch i % 4 {
			case 0:
				keep = bs.window(bitsRead(&b))
			case 1:
				keep = src.Uint64() >> 11
			case 2:
				keep = belowKeeps()[i%len(belowKeeps())]
			case 3:
				keep = bs.window(bitsRead(&b)) + 1
			}
			checkBelow(t, &b, bs, keep&(1<<53-1))
		}
	}
}

// TestBitsBudget: a fair coin (keep = 2⁵²) reads exactly one bit, and a
// random keep reads 2 − 2⁻⁵² bits in expectation (the first difference
// is geometric, cut off at keep's last one bit). The random mean over
// 10⁵ keeps is held to 2 plus three standard errors of that geometric
// count (variance 2); it is a fixed seed, so the bound is a pin, not a
// coin flip.
func TestBitsBudget(t *testing.T) {
	b := NewBits(New(3, 0, 0))
	for i := 0; i < 64*100; i++ {
		b.Below(1 << 52)
	}
	if got := bitsRead(&b); got != 64*100 {
		t.Errorf("6400 fair coins read %d bits, want 6400", got)
	}
	if perCoin := bitsPerCoin(1<<52, 1e5, 5); perCoin != 1 {
		t.Errorf("keep = 2⁵²: %v bits per coin, want 1", perCoin)
	}
	const n = 100_000
	mean := bitsPerCoin(0, n, 5)
	if limit := 2 + 3*math.Sqrt(2.0/n); mean > limit {
		t.Errorf("random keeps: %.4f bits per coin, want ≤ %.4f", mean, limit)
	}
	t.Logf("random keeps: %.4f bits per coin", mean)
}

// FuzzBitsBelow searches (seed, skip, keep) for a comparison that
// disagrees with the reference: skip fair coins first, so the keep is
// compared at any offset into the reservoir.
func FuzzBitsBelow(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint64(1<<52))
	f.Add(uint64(2), uint8(63), uint64(1<<53-1))
	f.Add(uint64(3), uint8(12), uint64(1))
	f.Add(uint64(4), uint8(40), uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, skip uint8, keep uint64) {
		b, bs := NewBits(New(seed, 0, 1)), &bitString{s: New(seed, 0, 1)}
		for i := 0; i < int(skip); i++ {
			checkBelow(t, &b, bs, 1<<52)
		}
		checkBelow(t, &b, bs, keep&(1<<53-1))
		checkBelow(t, &b, bs, bs.window(bitsRead(&b)))
	})
}
