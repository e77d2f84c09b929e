package graph

import "nodedp/internal/unionfind"

// This file implements connectivity primitives: connected components,
// spanning forests, and the counting functions f_cc and f_sf from the paper
// (Section 1.1, Equation (1): f_cc(G) = |V(G)| - f_sf(G)).

// Components labels every vertex with a component id in [0, count).
// Component ids are assigned in increasing order of the smallest vertex in
// the component, so the labeling is deterministic.
func (g *Graph) Components() (labels []int, count int) {
	labels = make([]int, g.N())
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.adj[u] {
				if labels[w] == -1 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// ComponentSets returns the vertex sets of the connected components, each
// sorted increasingly, ordered by smallest vertex.
func (g *Graph) ComponentSets() [][]int {
	labels, count := g.Components()
	sets := make([][]int, count)
	for v, c := range labels {
		sets[c] = append(sets[c], v)
	}
	return sets
}

// CountComponents returns f_cc(G), the number of connected components.
// Isolated vertices each count as one component.
func (g *Graph) CountComponents() int {
	_, count := g.Components()
	return count
}

// SpanningForestSize returns f_sf(G) = |V(G)| - f_cc(G), the number of edges
// in any spanning forest of G.
func (g *Graph) SpanningForestSize() int {
	return g.N() - g.CountComponents()
}

// SpanningForest returns the edges of a BFS spanning forest of G.
// The forest has exactly SpanningForestSize() edges. The result is
// deterministic: BFS from increasing roots, visiting neighbors in
// increasing order.
func (g *Graph) SpanningForest() []Edge {
	visited := make([]bool, g.N())
	forest := make([]Edge, 0, g.N())
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, w := range g.adj[u] {
				if !visited[w] {
					visited[w] = true
					forest = append(forest, NewEdge(u, w))
					queue = append(queue, w)
				}
			}
		}
	}
	return forest
}

// IsConnected reports whether g has at most one connected component.
func (g *Graph) IsConnected() bool { return g.CountComponents() <= 1 }

// IsForestEdgeSet reports whether the given edges (a subset of g's edges)
// form a forest, i.e. contain no cycle. It does not require the edges to be
// present in g.
func IsForestEdgeSet(n int, edges []Edge) bool {
	dsu := unionfind.New(n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n || e.U == e.V || !dsu.Union(e.U, e.V) {
			return false
		}
	}
	return true
}

// IsSpanningForestOf reports whether edges form a spanning forest of g:
// every edge belongs to g, the edges are acyclic, and there are exactly
// f_sf(G) of them (equivalently, they connect everything g connects).
func IsSpanningForestOf(g *Graph, edges []Edge) bool {
	for _, e := range edges {
		if e.U < 0 || e.U >= g.N() || e.V < 0 || e.V >= g.N() || !g.HasEdge(e.U, e.V) {
			return false
		}
	}
	if !IsForestEdgeSet(g.N(), edges) {
		return false
	}
	return len(edges) == g.SpanningForestSize()
}

// MaxDegreeOfEdgeSet returns the maximum vertex degree within the given
// edge multiset (edges are assumed distinct).
func MaxDegreeOfEdgeSet(n int, edges []Edge) int {
	deg := make([]int, n)
	max := 0
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
		if deg[e.U] > max {
			max = deg[e.U]
		}
		if deg[e.V] > max {
			max = deg[e.V]
		}
	}
	return max
}
