package graph

import (
	"bufio"
	"fmt"
	"io"
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

// ReadEdgeList parses the edge-list format. Unknown vertices implied only
// by edges (without an "n" header) grow the graph as needed, up to maxN:
// an "n" header or an endpoint implying more vertices fails before any of
// them is allocated (math.MaxInt for trusted input).
func ReadEdgeList(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	g := New(0)
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
			var n int
			if _, err := fmt.Sscanf(fields[1], "%d", &n); err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1])
			}
			if n > maxN {
				return nil, fmt.Errorf("graph: line %d: %d vertices exceed the limit of %d", line, n, maxN)
			}
			for g.N() < n {
				g.AddVertex()
			}
		case len(fields) == 2:
			var u, v int
			if _, err := fmt.Sscanf(fields[0], "%d", &u); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[0])
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &v); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex %q", line, fields[1])
			}
			if u < 0 || v < 0 {
				return nil, fmt.Errorf("graph: line %d: negative vertex", line)
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
