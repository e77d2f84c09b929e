package graph

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// assertMatchesCold fails unless d is, field for field, the decomposition a
// cold pass over g gives: shard order, Orig, offsets, targets and m of every
// shard, the component fingerprints, the whole-graph fingerprint, and the
// vertex index.
func assertMatchesCold(t *testing.T, label string, d *Decomposition, g *Graph) {
	t.Helper()
	c := NewCSR(g)
	if d.N() != c.N() || d.M() != c.M() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", label, d.N(), d.M(), c.N(), c.M())
	}
	if d.Fingerprint() != g.Fingerprint() || d.Fingerprint() != c.Fingerprint() {
		t.Fatalf("%s: fingerprint %v, want %v", label, d.Fingerprint(), g.Fingerprint())
	}
	shards := c.ComponentShards()
	if len(d.Shards()) != len(shards) {
		t.Fatalf("%s: %d shards, want %d", label, len(d.Shards()), len(shards))
	}
	for i, sh := range shards {
		if !reflect.DeepEqual(*d.Shards()[i], *sh) {
			t.Fatalf("%s: shard %d = %+v, want %+v", label, i, *d.Shards()[i], *sh)
		}
	}
	if !reflect.DeepEqual(d.ComponentFingerprints(), c.ComponentFingerprints()) {
		t.Fatalf("%s: component fingerprints diverge from a cold pass", label)
	}
	labels, _ := c.Components()
	for v := 0; v < g.N(); v++ {
		if ci := d.Component(v); labels[v] != ci {
			t.Fatalf("%s: Component(%d) = %d, want %d", label, v, ci, labels[v])
		}
	}
}

// mutateGraph plans one multi-edge delta on a copy of g: a mix of three-way
// merges, splits of a component into three or more pieces, adds inside a
// component, removes that isolate a vertex, and random edits that favour
// the endpoints 0 and n−1. It returns the net adds and removes.
func mutateGraph(t *testing.T, g *Graph, rng *rand.Rand) (adds, removes []Edge) {
	t.Helper()
	n := g.N()
	h := g.Clone()
	sets := h.ComponentSets()
	vertex := func() int {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return n - 1
		}
		return rng.IntN(n)
	}
	ensure := func(u, v int) {
		if u != v {
			if _, err := h.EnsureEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ops := 1 + rng.IntN(3); ops > 0; ops-- {
		switch rng.IntN(5) {
		case 0: // three-way merge
			if len(sets) >= 3 {
				p := rng.Perm(len(sets))
				a, b, c := sets[p[0]], sets[p[1]], sets[p[2]]
				ensure(a[rng.IntN(len(a))], b[rng.IntN(len(b))])
				ensure(b[rng.IntN(len(b))], c[rng.IntN(len(c))])
			}
		case 1: // split: strip a component of all but one of its edges
			set := sets[rng.IntN(len(sets))]
			kept := false
			for _, u := range set {
				for _, w := range h.Neighbors(u) {
					if u < w {
						if !kept {
							kept = true
							continue
						}
						h.RemoveEdge(u, w)
					}
				}
			}
		case 2: // add inside a component
			set := sets[rng.IntN(len(sets))]
			for k := 0; k < 3 && len(set) > 1; k++ {
				ensure(set[rng.IntN(len(set))], set[rng.IntN(len(set))])
			}
		case 3: // isolate a vertex
			u := vertex()
			for _, w := range h.Neighbors(u) {
				h.RemoveEdge(u, w)
			}
		default: // random toggles
			for k := 0; k < 4; k++ {
				u, v := vertex(), vertex()
				if u == v {
					continue
				}
				if h.HasEdge(u, v) {
					h.RemoveEdge(u, v)
				} else {
					ensure(u, v)
				}
			}
		}
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(e.U, e.V) {
			adds = append(adds, e)
		}
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			removes = append(removes, e)
		}
	}
	return adds, removes
}

// TestDecompositionApplyMatchesCold drives random multi-edge delta streams
// through Apply and checks every step against a cold decomposition of the
// mutated graph, that untouched shards are shared by pointer, and that the
// pre-delta decomposition is left unchanged. It also checks that the
// streams cover the shapes a delta can take.
func TestDecompositionApplyMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	var merges3, splits3, inside, isolated, ends int
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.IntN(59)
		g := randomTestGraph(t, n, 1.2/float64(n), rng)
		d := NewCSR(g).Decompose()
		assertMatchesCold(t, "cold", d, g)
		for step := 0; step < 12; step++ {
			adds, removes := mutateGraph(t, g, rng)
			before := g.Clone()
			next, err := d.Apply(adds, removes)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			// d is immutable: it still describes the pre-delta graph.
			assertMatchesCold(t, "pre-delta", d, before)

			touched := make(map[int]bool)
			for _, list := range [][]Edge{adds, removes} {
				for _, e := range list {
					touched[d.Component(e.U)] = true
					touched[d.Component(e.V)] = true
					if e.U == 0 || e.V == n-1 {
						ends++
					}
				}
			}
			for _, e := range adds {
				if d.Component(e.U) == d.Component(e.V) {
					inside++
				}
			}
			for _, e := range removes {
				g.RemoveEdge(e.U, e.V)
			}
			for _, e := range adds {
				if err := g.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			assertMatchesCold(t, fmt.Sprintf("trial %d step %d", trial, step), next, g)
			switch pre, post := len(d.Shards()), len(next.Shards()); {
			case len(removes) == 0 && post <= pre-2:
				merges3++
			case len(adds) == 0 && post >= pre+2:
				splits3++
			}
			for _, e := range removes {
				if g.Degree(e.U) == 0 || g.Degree(e.V) == 0 {
					isolated++
				}
			}
			for i, sh := range d.Shards() {
				if touched[i] {
					continue
				}
				if got := next.Shards()[next.Component(sh.Orig[0])]; got != sh {
					t.Fatalf("trial %d step %d: untouched shard %d was rebuilt", trial, step, i)
				}
			}
			for k := 0; k < 20; k++ {
				u, v := rng.IntN(n), rng.IntN(n)
				if next.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Fatalf("trial %d step %d: HasEdge(%d,%d) = %v", trial, step, u, v, next.HasEdge(u, v))
				}
			}
			d = next
		}
	}
	if merges3 == 0 || splits3 == 0 || inside == 0 || isolated == 0 || ends == 0 {
		t.Fatalf("streams missed a delta shape: %d three-way merges, %d splits into three, %d adds inside a component, %d isolating removes, %d edits at 0 or n−1",
			merges3, splits3, inside, isolated, ends)
	}
	t.Logf("%d three-way merges, %d splits into three, %d adds inside a component, %d isolating removes, %d edits at 0 or n−1",
		merges3, splits3, inside, isolated, ends)
}

// TestDecompositionApplyRejectsBadDeltas checks every precondition of
// Apply: each violation is an error and returns no decomposition.
func TestDecompositionApplyRejectsBadDeltas(t *testing.T) {
	g := MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}})
	d := NewCSR(g).Decompose()
	for _, tc := range []struct {
		name          string
		adds, removes []Edge
	}{
		{"add present", []Edge{{1, 0}}, nil},
		{"add twice", []Edge{{0, 3}, {3, 0}}, nil},
		{"add self-loop", []Edge{{2, 2}}, nil},
		{"add out of range", []Edge{{0, 5}}, nil},
		{"remove absent", nil, []Edge{{0, 2}}},
		{"remove twice", nil, []Edge{{3, 4}, {4, 3}}},
		{"remove negative", nil, []Edge{{-1, 2}}},
	} {
		if next, err := d.Apply(tc.adds, tc.removes); err == nil || next != nil {
			t.Errorf("%s: Apply = %v, %v; want an error", tc.name, next, err)
		}
	}
	if next, err := d.Apply(nil, nil); err != nil || next != d {
		t.Errorf("empty delta: Apply = %v, %v; want d itself", next, err)
	}
	assertMatchesCold(t, "after rejected deltas", d, g)
}
