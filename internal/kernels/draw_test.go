package kernels

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// rolledStream is rng.Stream as it was before its Philox rounds were
// written out: the ten rounds run as a loop that returns the block as an
// array, and a 64-bit read is two 32-bit reads. It is the differential
// oracle and the benchmark baseline for the unrolled stream.
type rolledStream struct {
	key  [2]uint32
	base [2]uint32
	ctr  uint64
	buf  [4]uint32
	n    int
}

func newRolledStream(seed uint64, rank, sub uint32) *rolledStream {
	return &rolledStream{key: [2]uint32{uint32(seed), uint32(seed >> 32)}, base: [2]uint32{rank, sub}}
}

func rolledPhiloxBlock(ctr [4]uint32, key [2]uint32) [4]uint32 {
	k0, k1 := key[0], key[1]
	c0, c1, c2, c3 := ctr[0], ctr[1], ctr[2], ctr[3]
	for i := 0; i < 10; i++ {
		p0 := uint64(0xD2511F53) * uint64(c0)
		p1 := uint64(0xCD9E8D57) * uint64(c2)
		hi0, lo0 := uint32(p0>>32), uint32(p0)
		hi1, lo1 := uint32(p1>>32), uint32(p1)
		c0, c1, c2, c3 = hi1^c1^k0, lo1, hi0^c3^k1, lo0
		k0 += 0x9E3779B9
		k1 += 0xBB67AE85
	}
	return [4]uint32{c0, c1, c2, c3}
}

func (s *rolledStream) Uint32() uint32 {
	if s.n == 0 {
		s.buf = rolledPhiloxBlock([4]uint32{uint32(s.ctr), uint32(s.ctr >> 32), s.base[0], s.base[1]}, s.key)
		s.ctr++
		s.n = 4
	}
	s.n--
	return s.buf[s.n]
}

func (s *rolledStream) Uint64() uint64 {
	hi := uint64(s.Uint32())
	lo := uint64(s.Uint32())
	return hi<<32 | lo
}

// divSampler is rng.PrefixSampler as it was before its draw went through
// rng.Bounded and its index went to one bucket per entry: rejection and
// a 64-bit remainder on every draw, then a scan from an index of about
// n/8 buckets. Oracle and benchmark baseline, like rolledStream.
type divSampler struct {
	cum   []uint64
	total uint64
	shift uint
	start []int32
}

func newDivSampler(weights []uint64) *divSampler {
	ds := &divSampler{cum: make([]uint64, len(weights))}
	for i, w := range weights {
		ds.total += w
		ds.cum[i] = ds.total
	}
	for ds.total>>ds.shift > uint64(len(weights))/8 {
		ds.shift++
	}
	ds.start = make([]int32, (ds.total-1)>>ds.shift+1)
	i := 0
	for b := range ds.start {
		for ds.cum[i] <= uint64(b)<<ds.shift {
			i++
		}
		ds.start[b] = int32(i)
	}
	return ds
}

// uint64n is the division-based Stream.Uint64n the sampler drew through.
func uint64n(s *rng.Stream, n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	limit := -n % n
	for {
		if v := s.Uint64(); v >= limit {
			return v % n
		}
	}
}

func (ds *divSampler) Sample(s *rng.Stream) int {
	x := uint64n(s, ds.total)
	i := int(ds.start[x>>ds.shift])
	for ds.cum[i] <= x {
		i++
	}
	return i
}

// TestStreamMatchesRolledPhilox replays 10⁵ mixed 32- and 64-bit reads
// through the unrolled stream and the rolled one: every value must agree.
func TestStreamMatchesRolledPhilox(t *testing.T) {
	pick := rng.New(3, 0, 0)
	for _, id := range [][3]uint64{{0, 0, 0}, {42, 3, 1}, {math.MaxUint64, math.MaxUint32, math.MaxUint32}} {
		s, ref := rng.New(id[0], uint32(id[1]), uint32(id[2])), newRolledStream(id[0], uint32(id[1]), uint32(id[2]))
		for k := 0; k < 100_000; k++ {
			if pick.Uint32()&1 == 0 {
				if a, b := s.Uint32(), ref.Uint32(); a != b {
					t.Fatalf("stream %v read %d: Uint32 %#x, rolled %#x", id, k, a, b)
				}
			} else if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("stream %v read %d: Uint64 %#x, rolled %#x", id, k, a, b)
			}
		}
	}
}

// drawWeights are the arrays the sampler pair is checked on: the
// benchmark's unit weights (m = 1 536, the Watts–Strogatz n = 256 edge
// count) and a skewed array whose total is not a power of two.
func drawWeights() map[string][]uint64 {
	unit, skewed := make([]uint64, 1536), make([]uint64, 1536)
	st := rng.New(8, 0, 0)
	for i := range unit {
		unit[i] = 1
		skewed[i] = 1 + st.Uint64n(1<<uint(st.Intn(30)))
	}
	return map[string][]uint64{"unit": unit, "skewed": skewed}
}

// TestPrefixSamplerMatchesDivSampler draws 10⁵ indices from both
// samplers on identical streams: same indices, and the streams stay in
// step, so the two consume the same variates.
func TestPrefixSamplerMatchesDivSampler(t *testing.T) {
	for name, w := range drawWeights() {
		ps, ds := rng.NewPrefixSampler(w), newDivSampler(w)
		a, b := rng.New(1, 2, 3), rng.New(1, 2, 3)
		for k := 0; k < 100_000; k++ {
			if x, y := ps.Sample(a), ds.Sample(b); x != y {
				t.Fatalf("%s draw %d: Sample %d, division sampler %d", name, k, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("%s: the streams fell out of step", name)
		}
	}
}

// drawBatch is how many reads or draws one benchmark op makes — the
// m = 1 536 of the unit-weight array — so that ns/op sits far above the
// whole nanoseconds the snapshot's ratios are taken from.
const drawBatch = 1536

var drawSink uint64

func drawStreamUint64(s *rng.Stream) {
	for k := 0; k < drawBatch; k++ {
		drawSink ^= s.Uint64()
	}
}

func drawRolledUint64(s *rolledStream) {
	for k := 0; k < drawBatch; k++ {
		drawSink ^= s.Uint64()
	}
}

func benchStreamUint64(b *testing.B, s *rng.Stream) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drawStreamUint64(s)
	}
}

func benchRolledUint64(b *testing.B, s *rolledStream) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drawRolledUint64(s)
	}
}

func benchPrefixSample(b *testing.B, ps *rng.PrefixSampler, st *rng.Stream) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < drawBatch; k++ {
			drawSink += uint64(ps.Sample(st))
		}
	}
}

func benchDivSample(b *testing.B, ds *divSampler, st *rng.Stream) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < drawBatch; k++ {
			drawSink += uint64(ds.Sample(st))
		}
	}
}

func BenchmarkDraw(b *testing.B) {
	unit := drawWeights()["unit"]
	st, rolled := rng.New(1, 0, 0), newRolledStream(1, 0, 0)
	ps, ds := rng.NewPrefixSampler(unit), newDivSampler(unit)
	b.Run("philox/unrolled", func(b *testing.B) { benchStreamUint64(b, st) })
	b.Run("philox/rolled", func(b *testing.B) { benchRolledUint64(b, rolled) })
	b.Run("sample/bounded", func(b *testing.B) { benchPrefixSample(b, ps, st) })
	b.Run("sample/division", func(b *testing.B) { benchDivSample(b, ds, st) })
}
