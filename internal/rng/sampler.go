package rng

// PrefixSampler draws indices with probability proportional to fixed
// nonnegative integer weights by looking a uniform variate up in the
// cumulative weights — the scheme Karger–Stein §5 assume for weighted
// edge selection. The variate comes from a Bounded over the total, so a
// draw divides nothing. The lookup starts from a bucket index, not a
// binary search: [0, total) is cut into about n equal buckets (the
// narrowest power-of-two width w with total/w ≤ n), each
// remembering where its first variate lands. Buckets carry equal
// probability mass, so the expected scan is under two entries whatever
// the weights' skew, and on unit weights every bucket is one variate
// wide and the lookup is exactly one probe. The Eager Step builds
// its first round's sampler once per solve and shares it read-only with
// every trial, which is what pays for an index as long as the array.
// Neither the Bounded nor the index changes which index a variate maps
// to — the first i with cum[i] > x — so draws are the same as a division
// and a binary search would give.
type PrefixSampler struct {
	cum   []uint64 // cum[i] = sum of weights[0..i]
	draw  Bounded  // over [0, total); the zero value when total is 0
	shift uint     // bucket of variate x is x>>shift
	start []int32  // start[b] = first i with cum[i] > b<<shift
}

// NewPrefixSampler builds a sampler over the given weights. Zero-weight
// entries are never drawn. Total returns 0 if all weights are zero, in
// which case Sample must not be called. A built sampler is read-only, so
// concurrent Samples, each with its own Stream, are safe.
func NewPrefixSampler(weights []uint64) *PrefixSampler {
	cum := make([]uint64, len(weights))
	var total uint64
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	ps := &PrefixSampler{cum: cum}
	for total>>ps.shift > uint64(len(weights)) {
		ps.shift++
	}
	if total > 0 {
		ps.draw = NewBounded(total)
		ps.start = make([]int32, (total-1)>>ps.shift+1)
		i := 0
		for b := range ps.start {
			for cum[i] <= uint64(b)<<ps.shift {
				i++
			}
			ps.start[b] = int32(i)
		}
	}
	return ps
}

// Total returns the sum of all weights.
func (ps *PrefixSampler) Total() uint64 { return ps.draw.n }

// Sample draws one index i with probability weights[i]/Total().
func (ps *PrefixSampler) Sample(s *Stream) int {
	if ps.draw.n == 0 {
		panic("rng: PrefixSampler.Sample with zero total weight")
	}
	return ps.index(ps.draw.Draw(s))
}

// index returns the first i with cum[i] > x, for x in [0, total).
func (ps *PrefixSampler) index(x uint64) int {
	i := int(ps.start[x>>ps.shift])
	for ps.cum[i] <= x {
		i++
	}
	return i
}

// AliasSampler draws indices with probability proportional to fixed
// nonnegative weights in O(1) per draw (Vose's alias method) after O(n)
// construction. Preferred when many draws are taken from the same
// distribution, e.g. the root's distribution of s sample slots over
// processors in communication-avoiding sparsification.
type AliasSampler struct {
	prob  []float64
	alias []int32
	n     int
}

// NewAliasSampler builds an alias table over the weights. At least one
// weight must be positive.
func NewAliasSampler(weights []uint64) *AliasSampler {
	n := len(weights)
	var total float64
	for _, w := range weights {
		total += float64(w)
	}
	if total == 0 || n == 0 {
		panic("rng: NewAliasSampler with zero total weight")
	}
	as := &AliasSampler{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		n:     n,
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = float64(w) * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		as.prob[l] = scaled[l]
		as.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			large = large[:len(large)-1]
			small = append(small, g)
		}
	}
	for _, g := range large {
		as.prob[g] = 1
	}
	for _, l := range small {
		as.prob[l] = 1 // numerical leftovers
	}
	return as
}

// Sample draws one index with probability proportional to its weight.
func (as *AliasSampler) Sample(s *Stream) int {
	i := s.Intn(as.n)
	if s.Float64() < as.prob[i] {
		return i
	}
	return int(as.alias[i])
}
