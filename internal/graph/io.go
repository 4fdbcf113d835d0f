package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrMalformed tags every input-format error returned by the loaders:
// unparsable lines, negative or out-of-range endpoints, zero weights,
// bad headers. Callers distinguish caller mistakes from I/O failures
// with errors.Is(err, ErrMalformed) — the service layer maps the former
// to HTTP 400 and everything else to 500.
var ErrMalformed = errors.New("malformed graph input")

// malformedf builds a descriptive format error wrapping ErrMalformed.
func malformedf(format string, args ...interface{}) error {
	return fmt.Errorf("graph: "+format+": %w", append(args, ErrMalformed)...)
}

// parseWeight parses an edge weight strictly: a positive integer fitting
// uint64. Weights feed unchecked uint64 accumulators downstream (degree
// sums, sampling probabilities), so NaN/Inf spellings, float syntax,
// negatives, zero, and overflow must all stop here — each with a message
// naming what was wrong rather than a generic parse failure.
func parseWeight(s string) (uint64, error) {
	w, err := strconv.ParseUint(s, 10, 64)
	if err == nil {
		if w == 0 {
			return 0, errors.New("zero weight")
		}
		return w, nil
	}
	if errors.Is(err, strconv.ErrRange) {
		return 0, fmt.Errorf("weight %q overflows uint64", s)
	}
	if f, ferr := strconv.ParseFloat(s, 64); ferr == nil {
		switch {
		case math.IsNaN(f):
			return 0, errors.New("weight is NaN")
		case math.IsInf(f, 0):
			return 0, fmt.Errorf("non-finite weight %q", s)
		case f < 0:
			return 0, fmt.Errorf("negative weight %q", s)
		default:
			return 0, fmt.Errorf("non-integer weight %q", s)
		}
	}
	return 0, fmt.Errorf("bad weight %q", s)
}

// WriteEdgeList serializes g in the artifact's plain edge-list format:
// a header line "n m" followed by one "u v w" line per edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var scratch [64]byte // the longest line, "-2147483648 -2147483648 18446744073709551615\n", is 45 bytes
	b := strconv.AppendInt(scratch[:0], int64(g.N), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(g.Edges)), 10)
	b = append(b, '\n')
	if _, err := bw.Write(b); err != nil {
		return err
	}
	for _, e := range g.Edges {
		b = strconv.AppendInt(scratch[:0], int64(e.U), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, ' ')
		b = strconv.AppendUint(b, e.W, 10)
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine caps the length of one input line; a longer line fails the
// load with bufio.ErrTooLong.
const maxLine = 1 << 20

// Byte classes of the tokenizer: a field byte, an ASCII space (the
// bytes below 0x80 that unicode.IsSpace accepts), or a byte ≥ 0x80.
const (
	fieldByte = iota
	spaceByte
	highByte
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte{'\t', '\n', '\v', '\f', '\r', ' '} {
		c[b] = spaceByte
	}
	for b := 0x80; b < 0x100; b++ {
		c[b] = highByte
	}
	return c
}()

// lineFields is the tokenizer both loaders share. It splits each data
// line of the input into fields in place, on the scanner's own buffer,
// so a line costs no allocation: blank lines and '#' or '%' comments are
// skipped, and only the first three fields are kept, the count capped at
// three. An ASCII line splits on ASCII whitespace. A line holding a byte
// ≥ 0x80 before the end of its third field goes through
// strings.TrimSpace and strings.Fields instead, so a Unicode space such
// as U+00A0 separates fields there too; past the third field no byte can
// change the first three or their count.
type lineFields struct {
	sc   *bufio.Scanner
	line int       // number of the current line, from 1, comments counted
	f    [3][]byte // the current line's first fields; valid until next
	n    int       // how many of f are set
}

func newLineFields(r io.Reader) lineFields {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return lineFields{sc: sc}
}

// next advances to the next data line and splits it; false at the end of
// the input or on a read error (the scanner's Err).
func (l *lineFields) next() bool {
	for l.sc.Scan() {
		l.line++
		if l.split(l.sc.Bytes()) {
			return true
		}
	}
	return false
}

// split splits line b, reporting false for a blank or comment line.
func (l *lineFields) split(b []byte) bool {
	i := 0
	for i < len(b) && byteClass[b[i]] == spaceByte {
		i++
	}
	if i == len(b) || b[i] == '#' || b[i] == '%' {
		return false
	}
	l.n = 0
	for i < len(b) && l.n < len(l.f) {
		j := i
		for j < len(b) && byteClass[b[j]] == fieldByte {
			j++
		}
		if j < len(b) && byteClass[b[j]] == highByte {
			return l.splitUnicode(b)
		}
		l.f[l.n] = b[i:j]
		l.n++
		for j < len(b) && byteClass[b[j]] == spaceByte {
			j++
		}
		i = j
	}
	return true
}

// splitUnicode splits a line holding a non-ASCII byte the way
// strings.Fields does, reporting false for a blank or comment line.
func (l *lineFields) splitUnicode(b []byte) bool {
	text := strings.TrimSpace(string(b))
	if text == "" || text[0] == '#' || text[0] == '%' {
		return false
	}
	fields := strings.Fields(text)
	l.n = min(len(fields), len(l.f))
	for k := range l.n {
		l.f[k] = []byte(fields[k])
	}
	return true
}

// digits reads t as a plain run of one to 19 ASCII digits — every field
// WriteEdgeList writes — without strconv; ok is false for anything else
// (a sign, another byte, a longer run), which the callers below hand to
// strconv so that its result and error stand.
func digits(t []byte) (v uint64, ok bool) {
	if len(t) == 0 || len(t) > 19 {
		return 0, false
	}
	for _, c := range t {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + uint64(d)
	}
	return v, true
}

// count parses a header field as strconv.Atoi does.
func count(t []byte) (int, bool) {
	if v, ok := digits(t); ok && v <= math.MaxInt {
		return int(v), true
	}
	v, err := strconv.Atoi(string(t))
	return v, err == nil
}

// vertexID parses an endpoint as strconv.ParseInt(t, 10, 32) does.
func vertexID(t []byte) (int64, bool) {
	if v, ok := digits(t); ok && v <= math.MaxInt32 {
		return int64(v), true
	}
	v, err := strconv.ParseInt(string(t), 10, 32)
	return v, err == nil
}

// weight parses a weight field as parseWeight does.
func weight(t []byte) (uint64, error) {
	if v, ok := digits(t); ok && v != 0 {
		return v, nil
	}
	return parseWeight(string(t))
}

// ReadSNAP parses the SNAP text format the artifact's dataset scripts
// consume: one "u v" (or "u v w") pair per line, '#'-comment lines, no
// header. The vertex count is inferred as max id + 1. Weights default
// to 1; self loops are dropped.
func ReadSNAP(r io.Reader) (*Graph, error) {
	l := newLineFields(r)
	var edges []Edge
	var total uint64
	maxID := int64(-1)
	for l.next() {
		if l.n < 2 {
			return nil, malformedf("snap line %d: need 'u v [w]'", l.line)
		}
		u, ok := vertexID(l.f[0])
		if !ok || u < 0 {
			return nil, malformedf("snap line %d: bad endpoint %q", l.line, l.f[0])
		}
		v, ok := vertexID(l.f[1])
		if !ok || v < 0 {
			return nil, malformedf("snap line %d: bad endpoint %q", l.line, l.f[1])
		}
		w := uint64(1)
		if l.n >= 3 {
			var err error
			if w, err = weight(l.f[2]); err != nil {
				return nil, malformedf("snap line %d: %v", l.line, err)
			}
		}
		maxID = max(maxID, u, v)
		if u != v {
			if total+w < total {
				return nil, malformedf("snap line %d: total weight overflows uint64", l.line)
			}
			total += w
			edges = append(edges, Edge{U: int32(u), V: int32(v), W: w})
		}
	}
	if err := l.sc.Err(); err != nil {
		return nil, err
	}
	return &Graph{N: int(maxID + 1), Edges: edges}, nil
}

// maxEdgeHint caps the edge capacity ReadEdgeList reserves from a
// header's edge count; longer lists grow by append.
const maxEdgeHint = 1 << 16

// ReadEdgeList parses the format produced by WriteEdgeList. A missing
// weight column defaults to weight 1, so unweighted graph files load too.
// Lines starting with '#' or '%' are comments.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	l := newLineFields(r)
	var g *Graph
	var total uint64
	for l.next() {
		if g == nil {
			if l.n < 2 {
				return nil, malformedf("line %d: header needs 'n m'", l.line)
			}
			n, ok := count(l.f[0])
			if !ok || n < 0 {
				return nil, malformedf("line %d: bad vertex count %q", l.line, l.f[0])
			}
			m, ok := count(l.f[1])
			if !ok || m < 0 {
				return nil, malformedf("line %d: bad edge count %q", l.line, l.f[1])
			}
			// m comes from the input, so it is only a capacity hint, and a
			// capped one: a header claiming billions of edges must not
			// allocate them before a single edge line has arrived.
			g = &Graph{N: n, Edges: make([]Edge, 0, min(m, maxEdgeHint))}
			continue
		}
		if l.n < 2 {
			return nil, malformedf("line %d: edge needs 'u v [w]'", l.line)
		}
		u, ok := vertexID(l.f[0])
		if !ok {
			return nil, malformedf("line %d: bad endpoint %q", l.line, l.f[0])
		}
		v, ok := vertexID(l.f[1])
		if !ok {
			return nil, malformedf("line %d: bad endpoint %q", l.line, l.f[1])
		}
		w := uint64(1)
		if l.n >= 3 {
			var err error
			if w, err = weight(l.f[2]); err != nil {
				return nil, malformedf("line %d: %v", l.line, err)
			}
		}
		if u < 0 || v < 0 || int(u) >= g.N || int(v) >= g.N {
			return nil, malformedf("line %d: edge (%d,%d) out of range for n=%d", l.line, u, v, g.N)
		}
		if u != v {
			if total+w < total {
				return nil, malformedf("line %d: total weight overflows uint64", l.line)
			}
			total += w
			g.Edges = append(g.Edges, Edge{U: int32(u), V: int32(v), W: w})
		}
	}
	if err := l.sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, malformedf("empty input")
	}
	return g, nil
}
