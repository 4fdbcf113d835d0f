// Package sort provides the cache-efficient sequential sorting kernels
// underneath the BSP layer: a stable LSD radix sort on 64-bit keys with
// an attached 64-bit payload word, and a fused sort+combine pass that
// merges equal keys by summing payloads. Edges sort through it as packed
// (U<<32|V, W) pairs — the packed key order equals the (U, V)
// lexicographic order the distributed algorithms need, because vertex ids
// are non-negative int32s.
//
// Unlike sort.Slice, the passes are branch-free counting scans with no
// interface dispatch and no per-comparison closure calls: 8n key reads
// for the histogram plus one scatter pass per non-trivial byte. Digits
// shared by every key (the common case — packed keys are bounded by the
// vertex count) are detected from the histogram and skipped, so sorting
// m edges of an n-vertex graph costs ⌈log₂₅₆ n²⌉ ≈ 4 scatter passes, not
// 8. All scratch is pooled: steady-state sorts allocate nothing.
package sort

import "sync"

// KV is one sort element: a 64-bit key with a 64-bit payload riding
// along. For edges, K packs the normalized endpoints and V carries the
// weight.
type KV struct {
	K, V uint64
}

// Key packs a normalized (u ≤ v) edge endpoint pair into a radix key
// whose uint64 order is the (u, v) lexicographic order.
func Key(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// KeyU and KeyV unpack a Key.
func KeyU(k uint64) int32 { return int32(uint32(k >> 32)) }
func KeyV(k uint64) int32 { return int32(uint32(k)) }

const (
	radixBuckets = 256
	radixDigits  = 8
	// insertionCutoff is the size below which a binary-insertion-style
	// pass beats the fixed histogram cost of the radix passes.
	insertionCutoff = 48
)

// insertionKV is a stable insertion sort by K for tiny inputs.
func insertionKV(kvs []KV) {
	for i := 1; i < len(kvs); i++ {
		x := kvs[i]
		j := i - 1
		for j >= 0 && kvs[j].K > x.K {
			kvs[j+1] = kvs[j]
			j--
		}
		kvs[j+1] = x
	}
}

// sortInto runs the LSD passes and returns the slice (kvs or scratch)
// holding the sorted data. len(scratch) must be ≥ len(kvs).
func sortInto(kvs, scratch []KV) []KV {
	n := len(kvs)
	if n < insertionCutoff {
		insertionKV(kvs)
		return kvs
	}
	scratch = scratch[:n]
	// One pass builds all eight digit histograms.
	var count [radixDigits][radixBuckets]int
	for i := range kvs {
		k := kvs[i].K
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := kvs, scratch
	for d := 0; d < radixDigits; d++ {
		c := &count[d]
		shift := uint(8 * d)
		// A digit every key agrees on needs no pass; src[0]'s bucket then
		// holds all n elements.
		if c[byte(src[0].K>>shift)] == n {
			continue
		}
		sum := 0
		for b := 0; b < radixBuckets; b++ {
			c[b], sum = sum, sum+c[b]
		}
		for i := range src {
			b := byte(src[i].K >> shift)
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// Pairs stable-sorts kvs ascending by K in place, using scratch (length ≥
// len(kvs)) as the ping-pong buffer.
func Pairs(kvs, scratch []KV) {
	if len(kvs) == 0 {
		return
	}
	res := sortInto(kvs, scratch)
	if &res[0] != &kvs[0] {
		copy(kvs, res)
	}
}

// Combine sorts kvs by K and merges runs of equal keys by summing their
// V payloads, returning the shortened slice aliasing kvs. The merge is
// fused with the radix sort's final data movement: when the last scatter
// pass lands in the scratch buffer, merging happens during the copy back
// into kvs, so combining costs no extra pass over the data.
func Combine(kvs, scratch []KV) []KV {
	if len(kvs) == 0 {
		return kvs
	}
	res := sortInto(kvs, scratch)
	out := kvs[:1]
	out[0] = res[0]
	for _, kv := range res[1:] {
		if last := &out[len(out)-1]; last.K == kv.K {
			last.V += kv.V
			continue
		}
		out = append(out, kv)
	}
	return out
}

// kvPool and wordPool recycle sort scratch across calls and goroutines.
// Buffers whose capacity turns out too small for a request are simply
// dropped to the collector.
var (
	kvPool   sync.Pool // *[]KV
	wordPool sync.Pool // *[]uint64
)

// Borrow returns a KV slice of length n from the scratch pool.
func Borrow(n int) []KV {
	if v := kvPool.Get(); v != nil {
		b := *(v.(*[]KV))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]KV, n)
}

// Release returns a Borrowed slice to the pool. The caller must not use
// it afterwards.
func Release(b []KV) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	kvPool.Put(&b)
}

// BorrowWords returns a uint64 slice of length n from the scratch pool.
func BorrowWords(n int) []uint64 {
	if v := wordPool.Get(); v != nil {
		b := *(v.(*[]uint64))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]uint64, n)
}

// ReleaseWords returns a BorrowWords slice to the pool.
func ReleaseWords(b []uint64) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	wordPool.Put(&b)
}
