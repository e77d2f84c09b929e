package graph

// This file implements CSR, an immutable compressed-sparse-row snapshot of
// a Graph: every vertex's sorted neighbor run laid end to end in one
// backing array. A snapshot is built once and then shared freely: it is
// safe for concurrent readers, its Neighbors method returns a sorted
// subslice of that array with zero allocation, and its component
// decomposition emits per-component CSR shards in one O(n+m) pass. The
// parallel evaluation engine (internal/forestlp) plans its work over these
// shards and reuses one snapshot across the whole Δ-grid of Algorithm 1.

// CSR is an immutable compressed-sparse-row view of an undirected simple
// graph on vertices 0..N-1. The zero value is an empty graph on zero
// vertices. A CSR is safe for concurrent use by multiple goroutines.
//
//privacy:secret — a CSR is the raw edge structure of the sensitive graph (see Graph).
type CSR struct {
	// offsets has length n+1; the neighbors of v are
	// targets[offsets[v]:offsets[v+1]], sorted increasingly.
	offsets []int
	targets []int
	m       int
}

// NewCSR builds a CSR snapshot of g by copying its sorted runs. Later
// mutations of g are not reflected in the snapshot.
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		offsets: make([]int, n+1),
		targets: make([]int, 0, 2*g.M()),
		m:       g.M(),
	}
	for v, nbrs := range g.adj {
		c.targets = append(c.targets, nbrs...)
		c.offsets[v+1] = len(c.targets)
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int {
	if len(c.offsets) == 0 {
		return 0
	}
	return len(c.offsets) - 1
}

// M returns the number of edges.
func (c *CSR) M() int { return c.m }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return c.offsets[v+1] - c.offsets[v] }

// Neighbors returns the neighbors of v in increasing order. The returned
// slice aliases the snapshot's backing array and must not be modified.
func (c *CSR) Neighbors(v int) []int { return c.targets[c.offsets[v]:c.offsets[v+1]] }

// Components labels every vertex with a component id in [0, count).
// Ids are assigned in increasing order of the smallest vertex in the
// component — the same deterministic order as Graph.Components.
func (c *CSR) Components() (labels []int, count int) {
	n := c.N()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	stack := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range c.Neighbors(u) {
				if labels[w] == -1 {
					labels[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// Shard is the CSR of one connected component, with vertices renumbered to
// local ids 0..len(Orig)-1 by rank. Like CSR, a Shard is immutable and safe
// for concurrent readers.
type Shard struct {
	CSR
	// Orig maps local vertex ids to the parent snapshot's vertex ids; it is
	// sorted increasingly.
	Orig []int
}

// ComponentShards decomposes the snapshot into per-component CSR shards in
// a single O(n+m) pass — no per-call Neighbors allocations and no hash
// maps. Shards are ordered by smallest original vertex (the Components
// order), and within a shard local ids follow original-vertex rank, so the
// decomposition is fully deterministic.
func (c *CSR) ComponentShards() []*Shard {
	labels, count := c.Components()
	n := c.N()

	// Per-component sizes (vertices and directed edge slots).
	vcount := make([]int, count)
	ecount := make([]int, count)
	for v := 0; v < n; v++ {
		comp := labels[v]
		vcount[comp]++
		ecount[comp] += c.Degree(v)
	}

	shards := make([]*Shard, count)
	for i := 0; i < count; i++ {
		shards[i] = &Shard{
			CSR: CSR{
				offsets: make([]int, vcount[i]+1),
				targets: make([]int, ecount[i]),
				m:       ecount[i] / 2,
			},
			Orig: make([]int, 0, vcount[i]),
		}
	}

	// Local ids by increasing original vertex: scanning v = 0..n-1 appends
	// each vertex to its shard in rank order.
	local := make([]int, n)
	for v := 0; v < n; v++ {
		sh := shards[labels[v]]
		local[v] = len(sh.Orig)
		sh.Orig = append(sh.Orig, v)
	}

	// Fill offsets and targets. Neighbor runs stay sorted because the
	// rank-order renumbering is monotone within each component.
	for i := 0; i < count; i++ {
		sh := shards[i]
		pos := 0
		for lv, ov := range sh.Orig {
			sh.offsets[lv] = pos
			for _, w := range c.Neighbors(ov) {
				sh.targets[pos] = local[w]
				pos++
			}
		}
		sh.offsets[len(sh.Orig)] = pos
	}
	return shards
}

// Graph materializes a mutable *Graph with the snapshot's vertex and edge
// set, for the algorithms written against Graph (spanning-forest
// construction, peeling). Its runs are one copy of the snapshot's targets.
func (c *CSR) Graph() *Graph {
	if c.N() == 0 {
		return New(0)
	}
	return fromRuns(append([]int(nil), c.targets...), c.offsets[1:])
}
