package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// readEdgeListByLine is the edge-list reader that adds each line's edge
// to the graph as it is read: the reference for ReadEdgeList, which
// collects the edges and builds the graph in one pass.
func readEdgeListByLine(r io.Reader, maxN int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	g := New(0)
	declared := -1
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

// FuzzReadEdgeList checks ReadEdgeList against readEdgeListByLine: the
// same inputs are accepted, into Equal graphs with equal fingerprints,
// and every rejection carries the same message, so it names the same
// line. The vertex limit stays below 2^16, which keeps every graph a
// header or endpoint can ask for small.
func FuzzReadEdgeList(f *testing.F) {
	var written bytes.Buffer
	if err := WriteEdgeList(&written, randomGraph(12, 0.3, rand.New(rand.NewPCG(21, 22)))); err != nil {
		f.Fatal(err)
	}
	seeds := []struct {
		text  string
		limit uint16
	}{
		{written.String(), 1000},
		{"# a comment\nn 4\n\n0 1\n# another\n2 3\n", 4},
		{"0 5\n", 1000},
		{"0 5\nn 7\n1 6\nn 7\n", 1000},
		{"n 3\n", 1000},
		{"0 1\n1 0\nbad\n", 1000}, // the repeat on line 2 fails before line 3
		{"0 1\n2 2\n1 0\n", 1000}, // the loop on line 2 fails before the repeat
		{"3 1\n2 0\n1 3\n0 2\n", 1000},
	}
	for _, bad := range badEdgeLists {
		seeds = append(seeds, struct {
			text  string
			limit uint16
		}{bad, 4})
	}
	for _, s := range seeds {
		f.Add(s.text, s.limit)
	}
	f.Fuzz(func(t *testing.T, text string, limit uint16) {
		got, gotErr := ReadEdgeList(strings.NewReader(text), int(limit))
		want, wantErr := readEdgeListByLine(strings.NewReader(text), int(limit))
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("ReadEdgeList error %v, line-by-line error %v", gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("ReadEdgeList error %q, line-by-line error %q", gotErr, wantErr)
			}
		default:
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("ReadEdgeList built %v %v, line-by-line %v %v", got, got.Edges(), want, want.Edges())
			}
		}
	})
}
