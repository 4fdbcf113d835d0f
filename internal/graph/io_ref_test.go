package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The loaders as they were before the in-place tokenizer: one string and
// one strings.Fields slice per line, strconv on every field, one
// fmt.Fprintf per written edge. They are the contract the production
// loaders are held to — the same (N, Edges) or the same error text —
// in the fuzz targets and the table tests.

func refWriteEdgeList(w io.Writer, g *Graph) error {
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

func refReadSNAP(r io.Reader) (*Graph, error) {
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

func refReadEdgeList(r io.Reader) (*Graph, error) {
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
