package graph

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList throws arbitrary bytes at the edge-list loader, whose
// input arrives straight from HTTP uploads. Properties: no panic (and no
// allocation sized by an untrusted header), and every graph it returns
// passes Validate.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 2\n0 1 4\n1 2\n"))
	f.Add([]byte("# c\n2 1\n% c\n0 1 7\n"))
	f.Add([]byte("2 5000000000\n0 1 1\n"))
	f.Add([]byte("2 1\n1 1 3\n0 5 1\n"))
	f.Add([]byte("2 1\n0 1 18446744073709551615\n0 1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded graph fails Validate: %v", err)
		}
	})
}

// FuzzReadSNAP is FuzzReadEdgeList for the headerless SNAP loader, whose
// vertex count is inferred from the largest id.
func FuzzReadSNAP(f *testing.F) {
	f.Add([]byte("# Nodes: 5\n0\t1\n3 4 7\n2 2\n1 3\n"))
	f.Add([]byte("0 2147483647\n"))
	f.Add([]byte("0 1 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSNAP(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded graph fails Validate: %v", err)
		}
	})
}
