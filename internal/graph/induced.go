package graph

import (
	"fmt"
	"slices"
)

// This file implements the node-level operations of Definition 1.1:
// node-neighboring graphs (remove a vertex with all adjacent edges, or
// insert a vertex with arbitrary edges) and induced subgraphs, which
// underlie node-distance and down-sensitivity (Definition 1.4).

// RemoveVertex returns the node-neighbor of g obtained by deleting v and
// all its adjacent edges. Remaining vertices are renumbered to 0..n-2
// preserving order: vertex w of the result corresponds to w in g if w < v
// and to w+1 otherwise. The renumbering is monotone, so every run stays
// sorted and the result is built in one O(n + m) walk.
func (g *Graph) RemoveVertex(v int) *Graph {
	g.checkVertex(v)
	targets := make([]int, 0, 2*(g.m-len(g.adj[v])))
	ends := make([]int, 0, g.N()-1)
	for u, nbrs := range g.adj {
		if u == v {
			continue
		}
		for _, w := range nbrs {
			switch {
			case w < v:
				targets = append(targets, w)
			case w > v:
				targets = append(targets, w-1)
			}
		}
		ends = append(ends, len(targets))
	}
	return fromRuns(targets, ends)
}

// AddVertexWithEdges returns the node-neighbor of g obtained by inserting a
// new vertex adjacent to the given (distinct, in-range) vertices of g.
// The new vertex has id g.N() in the result.
func (g *Graph) AddVertexWithEdges(neighbors []int) (*Graph, error) {
	h := g.Clone()
	nv := h.AddVertex()
	for _, w := range neighbors {
		if err := h.AddEdge(nv, w); err != nil {
			return nil, fmt.Errorf("graph: adding vertex: %w", err)
		}
	}
	return h, nil
}

// InducedSubgraph returns the subgraph of g induced by the given vertex set
// (duplicates rejected). Vertices are renumbered by rank: the i-th smallest
// vertex of keep becomes vertex i. The second result maps new ids to
// original ids.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int, error) {
	sorted := append([]int(nil), keep...)
	slices.Sort(sorted)
	for i, v := range sorted {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d out of range", v)
		}
		if i > 0 && sorted[i-1] == v {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced subgraph", v)
		}
	}
	// Ranks are found by binary search in sorted, and since both sorted
	// and every run ascend, each new run comes out sorted.
	var targets []int
	ends := make([]int, len(sorted))
	for i, v := range sorted {
		for _, w := range g.adj[v] {
			if j, ok := slices.BinarySearch(sorted, w); ok {
				targets = append(targets, j)
			}
		}
		ends[i] = len(targets)
	}
	return fromRuns(targets, ends), sorted, nil
}

// InducedSubgraphByMask is InducedSubgraph driven by a boolean mask of
// length g.N().
func (g *Graph) InducedSubgraphByMask(keep []bool) (*Graph, []int, error) {
	if len(keep) != g.N() {
		return nil, nil, fmt.Errorf("graph: mask length %d != n %d", len(keep), g.N())
	}
	var verts []int
	for v, k := range keep {
		if k {
			verts = append(verts, v)
		}
	}
	return g.InducedSubgraph(verts)
}

// IsIndependentSet reports whether no two vertices of set are adjacent in g.
func (g *Graph) IsIndependentSet(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// IsInducedStar reports whether center together with leaves forms an
// induced |leaves|-star in g (Section 1.1.2): center is adjacent to every
// leaf, and no two leaves are adjacent.
func (g *Graph) IsInducedStar(center int, leaves []int) bool {
	for _, l := range leaves {
		if l == center || !g.HasEdge(center, l) {
			return false
		}
	}
	return g.IsIndependentSet(leaves)
}
