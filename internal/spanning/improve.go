package spanning

import (
	"nodedp/internal/graph"
	"nodedp/internal/unionfind"
)

// This file implements a Fürer–Raghavachari-style local search that lowers
// the maximum degree of a spanning forest by single edge swaps: a non-tree
// edge (u,w) with both endpoint degrees ≤ k−2 replaces a tree edge incident
// to a degree-k vertex on the u–w tree path. Each swap strictly decreases
// the number of maximum-degree vertices, so the search terminates after at
// most O(n²) swaps. The result upper-bounds Δ* and is a heuristic (the full
// Fürer–Raghavachari cascade, which certifies Δ*+1, is not implemented);
// tests compare it against exact brute force on small graphs, and the
// certified route Δ* ≤ s(G)+1 via Repair is available through downsens.
//
// A swap pass reads the tree path of every non-tree edge. The forest does
// not change within a pass (a pass ends at its first swap), so each pass
// roots the forest once, with parent and depth arrays, and reads a u–w
// path by climbing both ends to their meeting vertex. A path in a forest
// is unique, so this finds the same paths, in the same orientation, as a
// search from u would.

// ImproveDegree returns a spanning forest of g obtained from the given one
// by degree-reducing swaps, together with its maximum degree. The input
// forest must be a spanning forest of g; the input slice is not mutated.
func ImproveDegree(g *graph.Graph, forestEdges []graph.Edge) ([]graph.Edge, int) {
	n := g.N()
	f := newForest(n)
	for _, e := range forestEdges {
		f.add(e.U, e.V)
	}
	edges := g.Edges()
	rf := newRootedForest(n)
	for {
		k := 0
		for v := 0; v < n; v++ {
			if d := f.degree(v); d > k {
				k = d
			}
		}
		if k <= 1 {
			break
		}
		if !trySwap(edges, f, rf, k) {
			break
		}
	}
	out := f.edges()
	return out, graph.MaxDegreeOfEdgeSet(n, out)
}

// trySwap looks for one improving swap against current max degree k among
// the graph's edges and applies it. Returns false if no swap applies. rf
// is scratch space, rooted here.
func trySwap(edges []graph.Edge, f *forest, rf *rootedForest, k int) bool {
	rf.root(f)
	for _, e := range edges {
		u, w := e.U, e.V
		if f.has(u, w) {
			continue
		}
		if f.degree(u) > k-2 || f.degree(w) > k-2 {
			continue
		}
		path := rf.path(u, w)
		if path == nil {
			continue // different trees cannot happen for spanning forests, but be safe
		}
		// Find a degree-k vertex strictly inside the path and drop one of
		// its path edges.
		for i := 1; i+1 < len(path); i++ {
			z := path[i]
			if f.degree(z) == k {
				f.remove(z, path[i-1])
				f.add(u, w)
				return true
			}
		}
	}
	return false
}

// rootedForest is a forest rooted at the smallest vertex of each tree:
// parent[r] = r at a root, depth counts edges to the root. It is rebuilt
// by root whenever the forest changes, and its scratch slices are reused.
type rootedForest struct {
	parent, depth   []int
	queue, up, down []int
}

func newRootedForest(n int) *rootedForest {
	return &rootedForest{parent: make([]int, n), depth: make([]int, n)}
}

// root roots every tree of f by breadth-first search. Parents and depths
// depend only on the forest, not on the order neighbors are visited in.
func (rf *rootedForest) root(f *forest) {
	for i := range rf.parent {
		rf.parent[i] = -1
	}
	for r := range rf.parent {
		if rf.parent[r] != -1 {
			continue
		}
		rf.parent[r], rf.depth[r] = r, 0
		queue := append(rf.queue[:0], r)
		for h := 0; h < len(queue); h++ {
			x := queue[h]
			for _, y := range f.adj[x] {
				if rf.parent[y] == -1 {
					rf.parent[y], rf.depth[y] = x, rf.depth[x]+1
					queue = append(queue, y)
				}
			}
		}
		rf.queue = queue
	}
}

// path returns the unique path from u to w in the rooted forest, u first,
// or nil if they are in different trees. The slice is valid until the
// next call.
func (rf *rootedForest) path(u, w int) []int {
	up, down := rf.up[:0], rf.down[:0]
	a, b := u, w
	for rf.depth[a] > rf.depth[b] {
		up = append(up, a)
		a = rf.parent[a]
	}
	for rf.depth[b] > rf.depth[a] {
		down = append(down, b)
		b = rf.parent[b]
	}
	for a != b {
		if rf.depth[a] == 0 {
			return nil // two distinct roots
		}
		up, down = append(up, a), append(down, b)
		a, b = rf.parent[a], rf.parent[b]
	}
	up = append(up, a)
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	rf.up, rf.down = up, down
	return up
}

// CappedSpanningForest searches for a spanning forest of g respecting
// per-vertex degree capacities: deg_F(v) ≤ caps[v]. It runs the
// capacity-aware greedy construction followed by capacity-aware local
// search, and reports whether the bound was met. The returned forest is
// always spanning (it may exceed the caps when ok is false).
//
// This is the certificate used by the forest-polytope LP after leaf
// peeling: a caps-respecting spanning tree of a piece certifies that the
// piece's LP value is |piece|−1.
func CappedSpanningForest(g *graph.Graph, caps []int) (forest []graph.Edge, ok bool) {
	forest = improveDegreeCapped(g, greedyCappedForest(g, caps), caps)
	deg := make([]int, g.N())
	for _, e := range forest {
		deg[e.U]++
		deg[e.V]++
	}
	for v, d := range deg {
		if d > caps[v] {
			return forest, false
		}
	}
	return forest, true
}

// greedyCappedForest builds a spanning forest Kruskal-style, repeatedly
// adding the acyclic edge with the most headroom caps[v] − deg_F(v) − 1 at
// its endpoints: first the larger minimum headroom, then the larger other
// headroom, ties to the lowest edge index. Under uniform caps that is the
// edge whose endpoints currently have the smallest degrees, which is how
// LowDegreeSpanningForest uses it.
func greedyCappedForest(g *graph.Graph, caps []int) []graph.Edge {
	n := g.N()
	deg := make([]int, n)
	dsu := unionfind.New(n)
	edges := g.Edges()
	target := g.SpanningForestSize()
	forest := make([]graph.Edge, 0, target)
	for len(forest) < target {
		best := -1
		bestKey := [2]int{-(1 << 30), -(1 << 30)}
		for i, e := range edges {
			if e.U < 0 {
				continue // consumed
			}
			if dsu.Same(e.U, e.V) {
				edges[i].U = -1 // cycle edge: never useful again
				continue
			}
			// Headroom after adding: prefer max of the minimum headroom,
			// then max of the other endpoint's headroom.
			hu := caps[e.U] - deg[e.U] - 1
			hv := caps[e.V] - deg[e.V] - 1
			if hu > hv {
				hu, hv = hv, hu
			}
			key := [2]int{hu, hv}
			if key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
				best, bestKey = i, key
			}
		}
		if best == -1 {
			break // should not happen: target counts reachable merges
		}
		e := edges[best]
		edges[best].U = -1
		dsu.Union(e.U, e.V)
		deg[e.U]++
		deg[e.V]++
		forest = append(forest, e)
	}
	return forest
}

// improveDegreeCapped reduces the total capacity excess Σ_v max(0, deg_F(v)
// − caps[v]) of a spanning forest by single swaps: a non-tree edge (u,w)
// whose endpoints have headroom replaces a tree edge incident to an
// over-capacity vertex on the u–w tree path. Each swap strictly decreases
// the excess, so the loop terminates.
func improveDegreeCapped(g *graph.Graph, forestEdges []graph.Edge, caps []int) []graph.Edge {
	n := g.N()
	f := newForest(n)
	for _, e := range forestEdges {
		f.add(e.U, e.V)
	}
	edges := g.Edges()
	rf := newRootedForest(n)
	for tryCappedSwap(edges, f, rf, caps) {
	}
	return f.edges()
}

// tryCappedSwap applies one excess-reducing swap among the graph's edges,
// reporting whether it found one. rf is scratch space, rooted here.
func tryCappedSwap(edges []graph.Edge, f *forest, rf *rootedForest, caps []int) bool {
	rf.root(f)
	for _, e := range edges {
		u, w := e.U, e.V
		if f.has(u, w) {
			continue
		}
		path := rf.path(u, w)
		if path == nil {
			continue
		}
		for i := 1; i+1 < len(path); i++ {
			z := path[i]
			if f.degree(z) <= caps[z] {
				continue
			}
			// Removing either path edge at z relieves z. The endpoint of
			// the added edge only gains net degree if it is not also the
			// endpoint losing the removed edge.
			for _, other := range []int{path[i-1], path[i+1]} {
				du, dw := 1, 1
				if other == u {
					du = 0
				}
				if other == w {
					dw = 0
				}
				if f.degree(u)+du > caps[u] || f.degree(w)+dw > caps[w] {
					continue
				}
				f.remove(z, other)
				f.add(u, w)
				return true
			}
		}
	}
	return false
}

// LowDegreeSpanningForest returns a spanning forest of g with heuristically
// minimized maximum degree, and that degree. It improves both the BFS
// forest and the degree-greedy Kruskal forest (greedyCappedForest under
// uniform caps) by local search and keeps the better result.
func LowDegreeSpanningForest(g *graph.Graph) ([]graph.Edge, int) {
	bfsForest, bfsDeg := ImproveDegree(g, g.SpanningForest())
	greedyForest, greedyDeg := ImproveDegree(g, greedyCappedForest(g, make([]int, g.N())))
	if greedyDeg < bfsDeg {
		return greedyForest, greedyDeg
	}
	return bfsForest, bfsDeg
}

// HasSpanningForestMaxDegree decides exactly, by backtracking, whether g
// has a spanning forest of maximum degree ≤ delta. The budget caps search
// nodes; exceeding it returns ok=false, exceeded=true. Intended for small
// graphs (the problem is NP-hard).
func HasSpanningForestMaxDegree(g *graph.Graph, delta int, budget int) (has, exceeded bool) {
	if delta <= 0 {
		// A degree-0 spanning forest exists iff there is nothing to span.
		return g.M() == 0 && delta >= 0, false
	}
	if budget <= 0 {
		budget = 1 << 22
	}
	// Quick win: the improved BFS forest may already satisfy the bound.
	if _, d := LowDegreeSpanningForest(g); d <= delta {
		return true, false
	}
	for _, comp := range g.ComponentSets() {
		if len(comp) == 1 {
			continue
		}
		sub, _, err := g.InducedSubgraph(comp)
		if err != nil {
			panic(err) // component sets are always valid
		}
		ok, exc := componentHasTree(sub, delta, &budget)
		if exc {
			return false, true
		}
		if !ok {
			return false, false
		}
	}
	return true, false
}

// componentHasTree decides whether the connected graph sub has a spanning
// tree of max degree ≤ delta by branch and bound over its edge list.
func componentHasTree(sub *graph.Graph, delta int, budget *int) (ok, exceeded bool) {
	edges := sub.Edges()
	n := sub.N()
	target := n - 1
	deg := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	// Backtracking undoes a union by making the old root a root again.
	// That is exact only because find never moves a pointer: path
	// compression would re-point vertices past that root, and they would
	// keep the undone union.
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	var rec func(idx, chosen int) (bool, bool)
	rec = func(idx, chosen int) (bool, bool) {
		*budget--
		if *budget < 0 {
			return false, true
		}
		if chosen == target {
			return true, false
		}
		if idx == len(edges) || chosen+(len(edges)-idx) < target {
			return false, false
		}
		e := edges[idx]
		ru, rv := find(e.U), find(e.V)
		if ru != rv && deg[e.U] < delta && deg[e.V] < delta {
			// Include.
			parent[ru] = rv
			deg[e.U]++
			deg[e.V]++
			okk, exc := rec(idx+1, chosen+1)
			deg[e.U]--
			deg[e.V]--
			parent[ru] = ru
			if okk || exc {
				return okk, exc
			}
		}
		// Exclude.
		return rec(idx+1, chosen)
	}
	return rec(0, 0)
}

// MinMaxDegreeExact computes Δ*(g) exactly by increasing search on delta.
// It returns exceeded=true if the backtracking budget ran out before an
// answer was certain. Δ* of an edgeless graph is 0.
func MinMaxDegreeExact(g *graph.Graph, budget int) (delta int, exceeded bool) {
	if g.M() == 0 {
		return 0, false
	}
	_, ub := LowDegreeSpanningForest(g)
	for d := 1; d <= ub; d++ {
		has, exc := HasSpanningForestMaxDegree(g, d, budget)
		if exc {
			return 0, true
		}
		if has {
			return d, false
		}
	}
	return ub, false
}
