package graph

import "testing"

// FuzzUnionFind drives Union/Find/Connected/Reset from a byte stream
// against a quick-find label array (every merge relabels one class, so
// the oracle has no structure to get wrong). The first byte sizes the
// universe; every following three bytes are one operation. After each
// operation Count must equal the oracle's class count and the parent
// array must keep the link-by-index invariant parent[v] ≤ v; at the end
// LabelsInto must be the oracle's first-appearance labelling. The seeds
// below run on every plain `go test`.
func FuzzUnionFind(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0})
	f.Add([]byte{8, 0, 7, 6, 0, 6, 5, 0, 5, 4, 0, 4, 3, 5, 7, 0, 6, 7, 3})                       // descending chain, then Find/Connected
	f.Add([]byte{8, 0, 0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 0, 2, 9, 9})                                // ascending chain, repeats, self-pair
	f.Add([]byte{16, 0, 0, 15, 0, 1, 15, 0, 2, 15, 7, 0, 4, 0, 3, 1, 7, 0, 40, 0, 39, 0})        // star, Reset smaller, Reset larger
	f.Add([]byte{12, 0, 0, 2, 0, 2, 4, 0, 11, 9, 0, 9, 7, 0, 4, 7, 5, 11, 0, 6, 0, 11, 7, 0, 0}) // two chains joined, Reset to 0

	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%65, data[1:]
		}
		uf := NewUnionFind(0)
		var class []int32
		reset := func(size int) {
			n = size
			uf.Reset(n)
			class = class[:0]
			for v := 0; v < n; v++ {
				class = append(class, int32(v))
			}
		}
		reset(n)
		classes := func() int {
			seen := map[int32]bool{}
			for _, c := range class {
				seen[c] = true
			}
			return len(seen)
		}
		for ; len(data) >= 3; data = data[3:] {
			op := data[0] % 8
			if op == 7 {
				reset(int(data[1]) % 65)
				continue
			}
			if n == 0 {
				continue
			}
			a, b := int32(int(data[1])%n), int32(int(data[2])%n)
			same := class[a] == class[b]
			switch op {
			case 5:
				ra, rb := uf.Find(a), uf.Find(b)
				if class[ra] != class[a] || uf.Find(ra) != ra {
					t.Fatalf("Find(%d) = %d: not a fixed point inside %d's set", a, ra, a)
				}
				if (ra == rb) != same {
					t.Fatalf("Find(%d) = %d, Find(%d) = %d, oracle same-set %v", a, ra, b, rb, same)
				}
			case 6:
				if uf.Connected(a, b) != same {
					t.Fatalf("Connected(%d,%d) = %v, oracle %v", a, b, !same, same)
				}
			default:
				if uf.Union(a, b) == same {
					t.Fatalf("Union(%d,%d) = %v, oracle same-set %v", a, b, same, same)
				}
				for v, from, to := 0, class[b], class[a]; v < n; v++ {
					if class[v] == from {
						class[v] = to
					}
				}
			}
			if want := classes(); uf.Count() != want {
				t.Fatalf("Count = %d, oracle %d", uf.Count(), want)
			}
			for v, p := range uf.parent {
				if int(p) > v || p < 0 {
					t.Fatalf("parent[%d] = %d breaks link-by-index", v, p)
				}
			}
		}
		labels := make([]int32, n)
		if k, want := uf.LabelsInto(labels), classes(); k != want {
			t.Fatalf("LabelsInto = %d labels, oracle %d", k, want)
		}
		r := GetRemap(n)
		defer PutRemap(r)
		for v, c := range class {
			if want := r.Of(c); labels[v] != want {
				t.Fatalf("labels[%d] = %d, oracle %d", v, labels[v], want)
			}
		}
	})
}
