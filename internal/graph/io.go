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
//
// The edges are collected first and the graph is built from them in one
// O(n + m) pass (see FromEdges), so input order costs nothing. An error
// names the first bad line, a repeated edge included, exactly as reading
// the lines one by one would.
func ReadEdgeList(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var edges []Edge
	var lines []int // lines[i] is the line edges[i] was read from
	n := 0          // vertices so far: the header's count or one past the largest endpoint
	declared := -1  // the "n" header's count, once one is read
	// repeated names the line of edges[dup], which repeats an earlier edge.
	repeated := func(dup int) error {
		return fmt.Errorf("graph: line %d: %w", lines[dup], duplicateEdge(edges[dup].U, edges[dup].V))
	}
	// fail reports err from the current line, unless an earlier line
	// repeated an edge.
	fail := func(err error) (*Graph, error) {
		if _, dup := build(n, edges); dup >= 0 {
			return nil, repeated(dup)
		}
		return nil, err
	}
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
			count, err := strconv.Atoi(fields[1])
			if err != nil || count < 0 {
				return fail(fmt.Errorf("graph: line %d: bad vertex count %q", line, fields[1]))
			}
			if count > maxN {
				return fail(fmt.Errorf("graph: line %d: %d vertices exceed the limit of %d", line, count, maxN))
			}
			if declared >= 0 && count != declared {
				return fail(fmt.Errorf("graph: line %d: vertex count %d contradicts the earlier header's %d", line, count, declared))
			}
			if count < n {
				return fail(fmt.Errorf("graph: line %d: vertex count %d leaves out vertex %d of an earlier edge", line, count, n-1))
			}
			declared, n = count, count
		case len(fields) == 2:
			u, err := strconv.Atoi(fields[0])
			if err != nil {
				return fail(fmt.Errorf("graph: line %d: bad vertex %q", line, fields[0]))
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return fail(fmt.Errorf("graph: line %d: bad vertex %q", line, fields[1]))
			}
			if u < 0 || v < 0 {
				return fail(fmt.Errorf("graph: line %d: negative vertex", line))
			}
			if declared >= 0 && max(u, v) >= declared {
				return fail(fmt.Errorf("graph: line %d: vertex %d is outside the %d vertices of the header", line, max(u, v), declared))
			}
			if max(u, v) >= maxN {
				return fail(fmt.Errorf("graph: line %d: vertex %d exceeds the limit of %d vertices", line, max(u, v), maxN))
			}
			if u == v {
				return fail(fmt.Errorf("graph: line %d: %w", line, checkEdge(u, v, n)))
			}
			n = max(n, u+1, v+1)
			edges = append(edges, Edge{U: u, V: v})
			lines = append(lines, line)
		default:
			return fail(fmt.Errorf("graph: line %d: unrecognized line %q", line, text))
		}
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	g, dup := build(n, edges)
	if dup >= 0 {
		return nil, repeated(dup)
	}
	return g, nil
}
