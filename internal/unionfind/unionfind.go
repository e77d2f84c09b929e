// Package unionfind provides a disjoint-set union (DSU) structure with
// union by rank and path compression. Its callers: graph.IsForestEdgeSet
// (cycle detection), the degree-greedy Kruskal forest behind spanning's
// low-degree and capped forests (the fast-path triage), forestlp's greedy
// primal forest bound, and serve's count of components a delta merges.
// The one union-find it does not serve is spanning's exact Δ* search,
// which must undo unions and so cannot compress paths.
package unionfind

// DSU is a disjoint-set union over elements 0..n-1.
type DSU struct {
	parent []int32
	rank   []int8
	sets   int
}

// New returns a DSU with n singleton sets.
func New(n int) *DSU {
	d := &DSU{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		sets:   n,
	}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Sets returns the current number of disjoint sets.
func (d *DSU) Sets() int { return d.sets }

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	root := int32(x)
	for d.parent[root] != root {
		root = d.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := d.parent[x]
		d.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (d *DSU) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	if d.rank[rx] < d.rank[ry] {
		rx, ry = ry, rx
	}
	d.parent[ry] = int32(rx)
	if d.rank[rx] == d.rank[ry] {
		d.rank[rx]++
	}
	d.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (d *DSU) Same(x, y int) bool { return d.Find(x) == d.Find(y) }

// Reset returns the DSU to n singleton sets without reallocating.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.rank[i] = 0
	}
	d.sets = len(d.parent)
}
