package graph

// This file implements Decomposition, the connected-component decomposition
// of a graph snapshot kept as mutable state across edge deltas. f_Δ is a sum
// over connected components, so an edge delta can only change the
// components holding one of its endpoints. Apply exploits that on the graph
// side: it rebuilds the touched components from their own shards and shares
// every other shard, fingerprint and vertex-index entry with the
// pre-delta decomposition, so a delta's graph work is O(touched) plus
// O(#components) pointer copies and one copy of the vertex index — it walks
// no untouched adjacency and hashes no untouched edge.
//
// Bit-identity with a cold decomposition is by construction: the touched
// vertices are renumbered by rank (a monotone map), so the touched
// subgraph's own ComponentShards pass yields exactly the shards — order,
// local ids, sorted runs — that ComponentShards of the whole mutated graph
// gives those components, and each shard's fingerprint is its own CSR's.

import (
	"cmp"
	"fmt"
	"slices"
)

// Decomposition is the component decomposition of one graph snapshot: its
// shards in ComponentShards order, their fingerprints, the whole-graph
// fingerprint lane sums and a vertex→component index. It is immutable and
// safe for concurrent readers; Apply returns a new decomposition that shares
// the untouched components with this one.
//
//privacy:secret — the shards are the raw edge structure of the sensitive graph (see Graph).
type Decomposition struct {
	n, m int
	// hi and lo are the whole-graph lane sums (see fingerprint.go), so
	// Fingerprint is O(1).
	hi, lo uint64
	// shards is the ComponentShards order: by smallest vertex.
	shards []*Shard
	// fps[i] == shards[i].Fingerprint(), as CSR.ComponentFingerprints.
	fps []Fingerprint
	// leader[v] is the smallest vertex of v's component — the Orig[0] of
	// its shard. Untouched components keep their leader across a delta, so
	// Apply rewrites only the entries of the vertices it relabels.
	leader []int
}

// Decompose builds the snapshot's decomposition: one labelling pass
// (ComponentShards), one hash pass over each shard for its fingerprint and
// one over the whole graph for the lane sums.
func (c *CSR) Decompose() *Decomposition {
	shards := c.ComponentShards()
	d := &Decomposition{
		n:      c.N(),
		m:      c.M(),
		shards: shards,
		fps:    make([]Fingerprint, len(shards)),
		leader: make([]int, c.N()),
	}
	d.hi, d.lo = c.laneSums()
	for i, sh := range shards {
		d.fps[i] = sh.Fingerprint()
		for _, v := range sh.Orig {
			d.leader[v] = sh.Orig[0]
		}
	}
	return d
}

// N returns the number of vertices.
func (d *Decomposition) N() int { return d.n }

// M returns the number of edges.
func (d *Decomposition) M() int { return d.m }

// Fingerprint returns the canonical digest of the decomposed graph — equal
// to Graph.Fingerprint of the same graph. Cost: O(1).
func (d *Decomposition) Fingerprint() Fingerprint {
	return composeFingerprint(d.n, d.m, d.hi, d.lo)
}

// Shards returns the component shards in ComponentShards order. The slice
// is shared with the decomposition and must not be modified.
func (d *Decomposition) Shards() []*Shard { return d.shards }

// ComponentFingerprints returns the shards' fingerprints, aligned with
// Shards and equal to CSR.ComponentFingerprints of the same graph. The
// slice is shared with the decomposition and must not be modified.
func (d *Decomposition) ComponentFingerprints() []Fingerprint { return d.fps }

// Component returns the index in Shards of v's component. Cost:
// O(log #components).
func (d *Decomposition) Component(v int) int { return d.shardAt(d.leader[v]) }

// shardAt returns the index of the first shard whose smallest vertex is at
// least v.
func (d *Decomposition) shardAt(v int) int {
	i, _ := slices.BinarySearchFunc(d.shards, v, func(sh *Shard, v int) int {
		return cmp.Compare(sh.Orig[0], v)
	})
	return i
}

// HasEdge reports whether the edge {u,v} is present, from the sorted
// neighbor run of u in its shard.
func (d *Decomposition) HasEdge(u, v int) bool {
	if d.leader[u] != d.leader[v] {
		return false
	}
	sh := d.shards[d.Component(u)]
	lu, _ := slices.BinarySearch(sh.Orig, u)
	lv, _ := slices.BinarySearch(sh.Orig, v)
	_, found := slices.BinarySearch(sh.Neighbors(lu), lv)
	return found
}

// Apply returns the decomposition of the graph with adds inserted and
// removes deleted. Every added edge must be absent and every removed edge
// present, each listed once; otherwise Apply returns an error and no
// decomposition. Only the components holding an endpoint are rebuilt — by
// a local relabelling of their vertices, exactly as a cold ComponentShards
// of the mutated graph would build them — and every other shard is shared
// by pointer with d, which stays valid and unchanged.
func (d *Decomposition) Apply(adds, removes []Edge) (*Decomposition, error) {
	adds, err := d.checkDelta(adds, false)
	if err != nil {
		return nil, fmt.Errorf("graph: delta adds: %w", err)
	}
	removes, err = d.checkDelta(removes, true)
	if err != nil {
		return nil, fmt.Errorf("graph: delta removes: %w", err)
	}
	if len(adds) == 0 && len(removes) == 0 {
		return d, nil
	}

	// The touched components, in shard order, and their vertices in
	// increasing order: rank r stands for vertex verts[r] below.
	var touched []int
	for _, list := range [][]Edge{adds, removes} {
		for _, e := range list {
			touched = append(touched, d.Component(e.U), d.Component(e.V))
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	var verts []int
	for _, ci := range touched {
		verts = append(verts, d.shards[ci].Orig...)
	}
	slices.Sort(verts)
	rank := func(v int) int {
		r, _ := slices.BinarySearch(verts, v)
		return r
	}

	// The mutated touched subgraph as a CSR over ranks: its old arcs minus
	// the removed edges, plus both arcs of every added edge.
	type arc struct{ from, to int }
	var arcs []arc
	for _, ci := range touched {
		sh := d.shards[ci]
		ranks := make([]int, len(sh.Orig))
		for l, v := range sh.Orig {
			ranks[l] = rank(v)
		}
		for lu, u := range sh.Orig {
			for _, lw := range sh.Neighbors(lu) {
				if len(removes) > 0 {
					if _, gone := slices.BinarySearchFunc(removes, NewEdge(u, sh.Orig[lw]), compareEdges); gone {
						continue
					}
				}
				arcs = append(arcs, arc{ranks[lu], ranks[lw]})
			}
		}
	}
	for _, e := range adds {
		ru, rv := rank(e.U), rank(e.V)
		arcs = append(arcs, arc{ru, rv}, arc{rv, ru})
	}
	slices.SortFunc(arcs, func(a, b arc) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	sub := &CSR{offsets: make([]int, len(verts)+1), targets: make([]int, len(arcs)), m: len(arcs) / 2}
	for i, a := range arcs {
		sub.targets[i] = a.to
		sub.offsets[a.from+1]++
	}
	for r := range verts {
		sub.offsets[r+1] += sub.offsets[r]
	}

	// Rank order is vertex order, so the sub-CSR's shards are the new
	// components' cold shards once Orig maps back to vertices.
	fresh := sub.ComponentShards()
	next := &Decomposition{
		n:      d.n,
		m:      d.m + len(adds) - len(removes),
		hi:     d.hi,
		lo:     d.lo,
		shards: make([]*Shard, 0, len(d.shards)-len(touched)+len(fresh)),
		fps:    make([]Fingerprint, 0, len(d.shards)-len(touched)+len(fresh)),
		leader: slices.Clone(d.leader),
	}
	for _, sh := range fresh {
		for j, r := range sh.Orig {
			sh.Orig[j] = verts[r]
		}
		for _, v := range sh.Orig {
			next.leader[v] = sh.Orig[0]
		}
	}
	for _, e := range adds {
		hi, lo := edgeHash(e.U, e.V)
		next.hi += hi
		next.lo += lo
	}
	for _, e := range removes {
		hi, lo := edgeHash(e.U, e.V)
		next.hi -= hi
		next.lo -= lo
	}

	// Merge the fresh shards into the untouched ones by smallest vertex,
	// copying the untouched runs between touched components in bulk.
	from, t := 0, 0
	copyUntouched := func(upto int) {
		for from < upto {
			if t < len(touched) && touched[t] == from {
				from, t = from+1, t+1
				continue
			}
			end := upto
			if t < len(touched) && touched[t] < end {
				end = touched[t]
			}
			next.shards = append(next.shards, d.shards[from:end]...)
			next.fps = append(next.fps, d.fps[from:end]...)
			from = end
		}
	}
	for _, sh := range fresh {
		copyUntouched(d.shardAt(sh.Orig[0]))
		next.shards = append(next.shards, sh)
		next.fps = append(next.fps, sh.Fingerprint())
	}
	copyUntouched(len(d.shards))
	return next, nil
}

// checkDelta returns the edges normalized and sorted, or an error if one is
// out of range, a self-loop or listed twice, or its presence in d is not
// wantPresent.
func (d *Decomposition) checkDelta(edges []Edge, wantPresent bool) ([]Edge, error) {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("self-loop at vertex %d", e.U)
		}
		if e.U < 0 || e.U >= d.n || e.V < 0 || e.V >= d.n {
			return nil, fmt.Errorf("edge (%d,%d) out of range [0,%d)", e.U, e.V, d.n)
		}
		out[i] = NewEdge(e.U, e.V)
		if d.HasEdge(e.U, e.V) != wantPresent {
			if wantPresent {
				return nil, fmt.Errorf("edge %v is absent", out[i])
			}
			return nil, fmt.Errorf("edge %v is already present", out[i])
		}
	}
	slices.SortFunc(out, compareEdges)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("edge %v listed twice", out[i])
		}
	}
	return out, nil
}

// compareEdges orders normalized edges lexicographically.
func compareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}
