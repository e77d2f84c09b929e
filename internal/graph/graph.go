// Package graph implements the undirected, unweighted, simple graphs that
// every other package in this repository operates on.
//
// Graphs are the databases of the paper "Node-Differentially Private
// Estimation of the Number of Connected Components" (PODS 2023): vertices
// represent individuals and edges represent relationships. The package
// provides exactly the primitives the paper's algorithms need: adjacency
// queries, connected components, spanning forests, induced subgraphs,
// node-neighbor operations (Definition 1.1), and induced-star checks.
//
// Vertices are dense integers 0..N-1. Self-loops and parallel edges are
// rejected; all algorithms in the paper are stated for simple graphs.
package graph

import (
	"fmt"
	"slices"
)

// Edge is an undirected edge. Edges are normalized so that U < V; two Edge
// values are equal iff they denote the same undirected edge.
type Edge struct {
	U, V int
}

// NewEdge returns the normalized edge {min(u,v), max(u,v)}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an undirected simple graph on vertices 0..n-1.
//
// Each vertex keeps its neighbors as one sorted slice, so every walk
// (Neighbors, VisitNeighbors, Edges, Components, SpanningForest, the
// induced and node-neighbor subgraphs) visits neighbors in ascending order
// without hashing or sorting. Costs: Degree is O(1), HasEdge
// O(log deg), and AddEdge, EnsureEdge and RemoveEdge O(deg), since they
// shift the tail of two sorted runs. FromEdges and ReadEdgeList build every
// run in one O(n + m) pass, so a hub's edges cost nothing extra in any
// input order.
//
// The zero value is an empty graph on zero vertices. Graph is not safe for
// concurrent mutation; concurrent reads are safe.
//
//privacy:secret — the raw edge structure is the sensitive input; it must never flow into JSON marshalling or a wire response (detlint wireleak enforces this).
type Graph struct {
	// adj[v] lists v's neighbors in strictly increasing order. Runs built
	// in bulk share one backing array, each capped at its own end, so an
	// insertion that outgrows a run reallocates that run alone.
	adj [][]int
	m   int
	// fpHi/fpLo are the live fingerprint lane sums (wrapping sums of the
	// per-edge hashes — see fingerprint.go), maintained by AddEdge and
	// RemoveEdge so Fingerprint is O(1) on a mutating graph.
	fpHi, fpLo uint64
}

// New returns an empty graph on n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdges builds a graph on n vertices with the given edges, in any
// order, in one O(n + m) pass. It returns an error if any edge is a
// self-loop, a duplicate, or out of range; the error names the first such
// edge in input order, as adding the edges one by one with AddEdge would.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	bad := len(edges)
	var badErr error
	for i, e := range edges {
		if badErr = checkEdge(e.U, e.V, n); badErr != nil {
			bad = i
			break
		}
	}
	g, dup := build(n, edges[:bad])
	if dup >= 0 {
		return nil, duplicateEdge(edges[dup].U, edges[dup].V)
	}
	if badErr != nil {
		return nil, badErr
	}
	return g, nil
}

// build returns the graph on n vertices with the given edges, each a
// non-loop pair in [0, n), or (nil, i) where edges[i] is the first edge
// that repeats an earlier one.
//
// The runs are built by two stable counting passes: the first buckets
// every edge index under each of its endpoints, and the second walks the
// buckets in increasing vertex order and appends that vertex to the run of
// each edge's other endpoint, which leaves every run sorted. A repeated
// edge lands right after its earlier copy in the same run.
func build(n int, edges []Edge) (*Graph, int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	ends := make([]int, n+1) // ends[v+1] is the end of v's run; ends[0] = 0
	for _, e := range edges {
		ends[e.U+1]++
		ends[e.V+1]++
	}
	for v := 0; v < n; v++ {
		ends[v+1] += ends[v]
	}
	next := make([]int, n)
	copy(next, ends[:n])
	bucket := make([]int, 2*len(edges))
	for i, e := range edges {
		bucket[next[e.U]] = i
		next[e.U]++
		bucket[next[e.V]] = i
		next[e.V]++
	}
	copy(next, ends[:n])
	targets := make([]int, 2*len(edges))
	dup := -1
	for w := 0; w < n; w++ {
		for _, i := range bucket[ends[w]:ends[w+1]] {
			u := edges[i].U
			if u == w {
				u = edges[i].V
			}
			if next[u] > ends[u] && targets[next[u]-1] == w {
				if dup < 0 || i < dup {
					dup = i
				}
				continue
			}
			targets[next[u]] = w
			next[u]++
		}
	}
	if dup >= 0 {
		return nil, dup
	}
	return fromRuns(targets, ends[1:]), -1
}

// fromRuns returns the graph whose vertex v has the sorted neighbor run
// targets[ends[v-1]:ends[v]] (from 0 for v = 0), summing its edge count and
// fingerprint lanes. Each run is capped at its own end.
func fromRuns(targets, ends []int) *Graph {
	g := &Graph{adj: make([][]int, len(ends))}
	lo := 0
	for u, hi := range ends {
		run := targets[lo:hi:hi]
		g.adj[u] = run
		lo = hi
		i, _ := slices.BinarySearch(run, u)
		for _, v := range run[i:] {
			eh, el := edgeHash(u, v)
			g.fpHi += eh
			g.fpLo += el
			g.m++
		}
	}
	return g
}

// MustFromEdges is FromEdges but panics on error. It is intended for tests
// and package-internal literals.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// checkVertex panics if v is out of range. Out-of-range vertices are
// programming errors, not data errors, so we panic rather than return error
// on read paths.
func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}

// checkEdge rejects a self-loop or an endpoint outside [0, n).
func checkEdge(u, v, n int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	return nil
}

func duplicateEdge(u, v int) error { return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v) }

// AddVertex appends a new isolated vertex and returns its id.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge inserts the undirected edge {u,v} in O(deg u + deg v). It
// returns an error if u == v, if either endpoint is out of range, or if
// the edge already exists.
func (g *Graph) AddEdge(u, v int) error {
	if err := checkEdge(u, v, len(g.adj)); err != nil {
		return err
	}
	i, dup := slices.BinarySearch(g.adj[u], v)
	if dup {
		return duplicateEdge(u, v)
	}
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	g.m++
	hi, lo := edgeHash(u, v)
	g.fpHi += hi
	g.fpLo += lo
	return nil
}

// EnsureEdge inserts {u,v} if absent and reports whether it inserted.
// Self-loops are still an error.
func (g *Graph) EnsureEdge(u, v int) (bool, error) {
	if g.HasEdge(u, v) {
		return false, nil
	}
	if err := g.AddEdge(u, v); err != nil {
		return false, err
	}
	return true, nil
}

// RemoveEdge deletes the edge {u,v} in O(deg u + deg v) and reports
// whether it was present.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	i, ok := slices.BinarySearch(g.adj[u], v)
	if !ok {
		return false
	}
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	hi, lo := edgeHash(u, v)
	g.fpHi -= hi
	g.fpLo -= lo
	return true
}

// HasEdge reports whether the edge {u,v} is present, by binary search in
// the shorter of the two runs: O(log min(deg u, deg v)).
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return len(g.adj[v])
}

// MaxDegree returns the maximum degree, or 0 for an edgeless graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the neighbors of v in increasing order.
// The returned slice is freshly allocated.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return append(make([]int, 0, len(g.adj[v])), g.adj[v]...)
}

// VisitNeighbors calls fn for each neighbor of v in increasing order,
// without allocating. It stops early if fn returns false.
func (g *Graph) VisitNeighbors(v int, fn func(w int) bool) {
	g.checkVertex(v)
	for _, w := range g.adj[v] {
		if !fn(w) {
			return
		}
	}
}

// Edges returns all edges, normalized and sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, nbrs := range g.adj {
		i, _ := slices.BinarySearch(nbrs, u)
		for _, v := range nbrs[i:] {
			out = append(out, Edge{U: u, V: v})
		}
	}
	return out
}

// Clone returns a deep copy of g, its runs in one backing array.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int, len(g.adj)), m: g.m, fpHi: g.fpHi, fpLo: g.fpLo}
	all := make([]int, 0, 2*g.m)
	for v, nbrs := range g.adj {
		lo := len(all)
		all = append(all, nbrs...)
		c.adj[v] = all[lo:len(all):len(all)]
	}
	return c
}

// Equal reports whether g and h have the same vertex count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if !slices.Equal(g.adj[u], h.adj[u]) {
			return false
		}
	}
	return true
}

// DegreeHistogram returns hist where hist[d] is the number of vertices of
// degree d; len(hist) == MaxDegree()+1 (or 1 for the empty graph).
func (g *Graph) DegreeHistogram() []int {
	hist := make([]int, g.MaxDegree()+1)
	for v := range g.adj {
		hist[len(g.adj[v])]++
	}
	return hist
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

// Validate checks internal invariants (sorted runs, adjacency symmetry,
// edge count, no self-loops). It is used by tests and by fuzz-style
// property checks.
func (g *Graph) Validate() error {
	count := 0
	for u, nbrs := range g.adj {
		for i, v := range nbrs {
			if v == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			if v < 0 || v >= len(g.adj) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", v, u)
			}
			if i > 0 && nbrs[i-1] >= v {
				return fmt.Errorf("graph: neighbors of %d not strictly increasing at %d", u, v)
			}
			if _, ok := slices.BinarySearch(g.adj[v], u); !ok {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", u, v)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count %d != half-degree sum %d", g.m, count)
	}
	return nil
}
