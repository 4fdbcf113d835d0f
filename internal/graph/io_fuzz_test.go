package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// loaderSeeds are inputs on which a tokenizer could part from
// strings.Fields and strconv: a U+00A0 separator (non-ASCII, so the
// Unicode split), signs, leading zeros, CR line ends, a vertical tab and
// a form feed, lines at and just past the 1 MiB cap.
func loaderSeeds() [][]byte {
	long := strings.Repeat(" ", maxLine-len("0 1 1")-1) + "0 1 1"
	return [][]byte{
		[]byte("3 2\n0 1 4\n1 2\n"),
		[]byte("3 2\n0\u00a01 4\n1 2\u00a05\u00a0\n\u00a0# c\n\u00a0\n"),
		[]byte("\u00a0# c\n 0 1 7\n"),
		[]byte("3 2\n+0 +1 +7\n1 2 +7\n"),
		[]byte("3 2\n-0 1 5\n"),
		[]byte("0003 002\n0000000000001 02 007\n1 2 00000000000000000000009\n"),
		[]byte("3 2\r\n0 1 4\r\n1 2\r\n\r\n"),
		[]byte("3 2\n0\v1\f4\n1\r2 5\n"),
		[]byte("2 1\n" + long + "\n"),
		[]byte("2 1\n" + long + " \n"),
		[]byte("2 1\n0 1 1 extra fields\n"),
		[]byte("2 1\n0 2147483648 1\n"),
		[]byte("2 1\n0 1 9999999999999999999\n0 1 18446744073709551615\n"),
		[]byte("9223372036854775808 1\n"),
		[]byte("2 1\n0 1 \xff\n"),
	}
}

// sameLoad fails t unless the two loads agree: the same (N, Edges), or
// the same error text with the same ErrMalformed-ness.
func sameLoad(t *testing.T, in []byte, got, want *Graph, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%.80q: err %v, reference err %v", in, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || errors.Is(gotErr, ErrMalformed) != errors.Is(wantErr, ErrMalformed) {
			t.Fatalf("%.80q: err %q, reference err %q", in, gotErr, wantErr)
		}
		return
	}
	if got.N != want.N || fmt.Sprint(got.Edges) != fmt.Sprint(want.Edges) {
		t.Fatalf("%.80q: loaded n=%d %v, reference n=%d %v", in, got.N, got.Edges, want.N, want.Edges)
	}
}

// FuzzReadEdgeList throws arbitrary bytes at the edge-list loader, whose
// input arrives straight from HTTP uploads. Properties: no panic (and no
// allocation sized by an untrusted header), the reference loader's graph
// or error (io_ref_test.go), and every graph it returns passes Validate.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("3 2\n0 1 4\n1 2\n"))
	f.Add([]byte("# c\n2 1\n% c\n0 1 7\n"))
	f.Add([]byte("2 5000000000\n0 1 1\n"))
	f.Add([]byte("2 1\n1 1 3\n0 5 1\n"))
	f.Add([]byte("2 1\n0 1 18446744073709551615\n0 1 1\n"))
	for _, s := range loaderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		want, wantErr := refReadEdgeList(bytes.NewReader(data))
		sameLoad(t, data, g, want, err, wantErr)
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
	for _, s := range loaderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSNAP(bytes.NewReader(data))
		want, wantErr := refReadSNAP(bytes.NewReader(data))
		sameLoad(t, data, g, want, err, wantErr)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loaded graph fails Validate: %v", err)
		}
	})
}

// TestLoadersMatchReferenceOnLongLines: a line of exactly the cap's
// length, newline included, loads; one byte more fails with the
// scanner's error — at the same line as the reference, whatever the
// reader's chunking, since the scanner's buffer now grows to the cap
// instead of starting there.
func TestLoadersMatchReferenceOnLongLines(t *testing.T) {
	for _, pad := range []int{maxLine - 7, maxLine - 6, maxLine - 5, maxLine} {
		in := []byte("2 1\n" + strings.Repeat(" ", pad) + "0 1 1\n0 1 2\n")
		for _, r := range []func([]byte) io.Reader{
			func(b []byte) io.Reader { return bytes.NewReader(b) },
			func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b[:3]), bytes.NewReader(b[3:])) },
		} {
			g, err := ReadEdgeList(r(in))
			want, wantErr := refReadEdgeList(r(in))
			sameLoad(t, in, g, want, err, wantErr)
			g, err = ReadSNAP(r(in[4:]))
			want, wantErr = refReadSNAP(r(in[4:]))
			sameLoad(t, in[4:], g, want, err, wantErr)
		}
	}
}
