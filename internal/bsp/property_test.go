package bsp

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Property tests: the collectives must be correct for arbitrary payload
// sizes, roots, and processor counts.

func TestBroadcastPropertyAnyPayload(t *testing.T) {
	err := quick.Check(func(seed uint64, rawP, rawK uint16, rawRoot uint8) bool {
		p := int(rawP%7) + 1
		k := int(rawK % 5000)
		root := int(rawRoot) % p
		s := rng.New(seed, 0, 0)
		payload := make([]uint64, k)
		for i := range payload {
			payload[i] = s.Uint64()
		}
		ok := true
		_, err := Run(p, func(c *Comm) {
			var in []uint64
			if c.Rank() == root {
				in = payload
			}
			got := c.Broadcast(root, in)
			if !equalU64(got, payload) {
				ok = false
			}
		})
		return err == nil && ok
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestAllToAllProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, rawP uint8) bool {
		p := int(rawP%6) + 1
		ok := true
		_, err := Run(p, func(c *Comm) {
			parts := make([][]uint64, p)
			for d := 0; d < p; d++ {
				// Variable-size payloads: d+1 words from rank r to d.
				parts[d] = make([]uint64, d+1)
				for i := range parts[d] {
					parts[d][i] = uint64(c.Rank())<<32 | uint64(d)
				}
			}
			got := c.AllToAll(parts)
			for src := 0; src < p; src++ {
				want := uint64(src)<<32 | uint64(c.Rank())
				if len(got[src]) != c.Rank()+1 {
					ok = false
					return
				}
				for _, w := range got[src] {
					if w != want {
						ok = false
						return
					}
				}
			}
		})
		return err == nil && ok
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestAllReduceSumProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, rawP uint8, rawLen uint8) bool {
		p := int(rawP%6) + 1
		length := int(rawLen%20) + 1
		// Expected: each position i sums rank-derived values.
		ok := true
		_, err := Run(p, func(c *Comm) {
			vec := make([]uint64, length)
			for i := range vec {
				vec[i] = uint64(c.Rank()+1) * uint64(i+1)
			}
			got := c.AllReduce(vec, OpSum)
			for i := range got {
				want := uint64(p*(p+1)/2) * uint64(i+1)
				if got[i] != want {
					ok = false
				}
			}
		})
		return err == nil && ok
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestGatherScatterInverse(t *testing.T) {
	// Scatter then gather must return the original parts.
	err := quick.Check(func(seed uint64, rawP uint8) bool {
		p := int(rawP%5) + 1
		s := rng.New(seed, 1, 1)
		parts := make([][]uint64, p)
		for i := range parts {
			parts[i] = make([]uint64, s.Intn(50))
			for j := range parts[i] {
				parts[i][j] = s.Uint64()
			}
		}
		ok := true
		_, err := Run(p, func(c *Comm) {
			var in [][]uint64
			if c.Rank() == 0 {
				in = parts
			}
			mine := c.Scatter(0, in)
			back := c.Gather(0, mine)
			if c.Rank() == 0 {
				for r := 0; r < p; r++ {
					if !equalU64(back[r], parts[r]) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}
