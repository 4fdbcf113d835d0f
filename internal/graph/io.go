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
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSNAP parses the SNAP text format the artifact's dataset scripts
// consume: one "u v" (or "u v w") pair per line, '#'-comment lines, no
// header. The vertex count is inferred as max id + 1. Weights default
// to 1; self loops are dropped.
func ReadSNAP(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	var total uint64
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, malformedf("snap line %d: need 'u v [w]'", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil || u < 0 {
			return nil, malformedf("snap line %d: bad endpoint %q", line, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || v < 0 {
			return nil, malformedf("snap line %d: bad endpoint %q", line, fields[1])
		}
		w := uint64(1)
		if len(fields) >= 3 {
			w, err = parseWeight(fields[2])
			if err != nil {
				return nil, malformedf("snap line %d: %v", line, err)
			}
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		if u != v {
			if total+w < total {
				return nil, malformedf("snap line %d: total weight overflows uint64", line)
			}
			total += w
			edges = append(edges, Edge{U: int32(u), V: int32(v), W: w})
		}
	}
	if err := sc.Err(); err != nil {
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *Graph
	var total uint64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) < 2 {
				return nil, malformedf("line %d: header needs 'n m'", line)
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n < 0 {
				return nil, malformedf("line %d: bad vertex count %q", line, fields[0])
			}
			m, err := strconv.Atoi(fields[1])
			if err != nil || m < 0 {
				return nil, malformedf("line %d: bad edge count %q", line, fields[1])
			}
			// m comes from the input, so it is only a capacity hint, and a
			// capped one: a header claiming billions of edges must not
			// allocate them before a single edge line has arrived.
			g = &Graph{N: n, Edges: make([]Edge, 0, min(m, maxEdgeHint))}
			continue
		}
		if len(fields) < 2 {
			return nil, malformedf("line %d: edge needs 'u v [w]'", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, malformedf("line %d: bad endpoint %q", line, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, malformedf("line %d: bad endpoint %q", line, fields[1])
		}
		w := uint64(1)
		if len(fields) >= 3 {
			w, err = parseWeight(fields[2])
			if err != nil {
				return nil, malformedf("line %d: %v", line, err)
			}
		}
		if u < 0 || v < 0 || int(u) >= g.N || int(v) >= g.N {
			return nil, malformedf("line %d: edge (%d,%d) out of range for n=%d", line, u, v, g.N)
		}
		if u != v {
			if total+w < total {
				return nil, malformedf("line %d: total weight overflows uint64", line)
			}
			total += w
			g.Edges = append(g.Edges, Edge{U: int32(u), V: int32(v), W: w})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, malformedf("empty input")
	}
	return g, nil
}
