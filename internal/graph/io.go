package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a minimal edge-list exchange format used by
// cmd/ccdp and the examples:
//
//	# comment lines start with '#'
//	n <vertexCount>
//	<u> <v>
//	<u> <v>
//	...
//
// The explicit vertex count line makes isolated vertices representable,
// which matters here: isolated vertices are connected components.

// WriteEdgeList writes g in the edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the edge-list format strictly: every number is a
// whole decimal field, an "n" header may repeat but not change its count,
// and no endpoint may lie outside it, before or after the header. Without
// a header, vertices implied by edges grow the graph as needed. Either way
// the graph holds at most maxN vertices: an "n" header or an endpoint
// implying more fails before any of them is allocated (math.MaxInt for
// trusted input).
func ReadEdgeList(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	g := New(0)
	declared := -1 // the "n" header's count, once one is read
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case fields[0] == "n" && len(fields) == 2:
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1])
			}
			if n > maxN {
				return nil, fmt.Errorf("graph: line %d: %d vertices exceed the limit of %d", line, n, maxN)
			}
			if declared >= 0 && n != declared {
				return nil, fmt.Errorf("graph: line %d: vertex count %d contradicts the earlier header's %d", line, n, declared)
			}
			if n < g.N() {
				return nil, fmt.Errorf("graph: line %d: vertex count %d leaves out vertex %d of an earlier edge", line, n, g.N()-1)
			}
			declared = n
			for g.N() < n {
				g.AddVertex()
			}
		case len(fields) == 2:
			u, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[0])
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[1])
			}
			if u < 0 || v < 0 {
				return nil, fmt.Errorf("graph: line %d: negative vertex", line)
			}
			if declared >= 0 && max(u, v) >= declared {
				return nil, fmt.Errorf("graph: line %d: vertex %d is outside the %d vertices of the header", line, max(u, v), declared)
			}
			if max(u, v) >= maxN {
				return nil, fmt.Errorf("graph: line %d: vertex %d exceeds the limit of %d vertices", line, max(u, v), maxN)
			}
			for g.N() <= u || g.N() <= v {
				g.AddVertex()
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}
