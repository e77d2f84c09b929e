package graph

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

func randomTestGraph(t *testing.T, n int, p float64, rng *rand.Rand) *Graph {
	t.Helper()
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestCSRMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(40)
		g := randomTestGraph(t, n, 2.5/float64(n+1), rng)
		c := NewCSR(g)

		if c.N() != g.N() || c.M() != g.M() {
			t.Fatalf("trial %d: CSR n=%d m=%d, graph n=%d m=%d", trial, c.N(), c.M(), g.N(), g.M())
		}
		for v := 0; v < n; v++ {
			if c.Degree(v) != g.Degree(v) {
				t.Fatalf("trial %d: vertex %d degree %d != %d", trial, v, c.Degree(v), g.Degree(v))
			}
			want := g.Neighbors(v)
			got := c.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("trial %d: vertex %d degree %d != %d", trial, v, len(got), len(want))
			}
			if !sort.IntsAreSorted(got) {
				t.Fatalf("trial %d: vertex %d neighbors not sorted: %v", trial, v, got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: vertex %d neighbors %v != %v", trial, v, got, want)
				}
			}
		}
		gl, gc := g.Components()
		cl, cc := c.Components()
		if gc != cc || !reflect.DeepEqual(gl, cl) {
			t.Fatalf("trial %d: components (%v,%d) != (%v,%d)", trial, cl, cc, gl, gc)
		}
		if c.N()-cc != g.SpanningForestSize() {
			t.Fatalf("trial %d: f_sf %d != %d", trial, c.N()-cc, g.SpanningForestSize())
		}

		back := c.Graph()
		if !back.Equal(g) {
			t.Fatalf("trial %d: CSR.Graph() differs from source", trial)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("trial %d: materialized graph invalid: %v", trial, err)
		}
	}
}

func TestCSRImmutableUnderMutation(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}})
	c := NewCSR(g)
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(0, 1)
	if c.M() != 2 || c.Degree(3) != 0 || c.Degree(0) != 1 {
		t.Fatalf("snapshot mutated: m=%d deg3=%d deg0=%d", c.M(), c.Degree(3), c.Degree(0))
	}
}

func TestComponentShards(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		n := rng.IntN(50)
		g := randomTestGraph(t, n, 1.8/float64(n+1), rng)
		c := NewCSR(g)
		shards := c.ComponentShards()

		sets := g.ComponentSets()
		if len(shards) != len(sets) {
			t.Fatalf("trial %d: %d shards != %d component sets", trial, len(shards), len(sets))
		}
		seen := 0
		for i, sh := range shards {
			if !reflect.DeepEqual(sh.Orig, sets[i]) {
				t.Fatalf("trial %d shard %d: Orig %v != component set %v", trial, i, sh.Orig, sets[i])
			}
			seen += sh.N()

			// The shard must equal the induced subgraph on its vertex set.
			want, orig, err := g.InducedSubgraph(sets[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(orig, sh.Orig) {
				t.Fatalf("trial %d shard %d: renumbering mismatch", trial, i)
			}
			got := sh.Graph()
			if !got.Equal(want) {
				t.Fatalf("trial %d shard %d: shard graph != induced subgraph", trial, i)
			}
			if _, count := sh.Components(); count > 1 {
				t.Fatalf("trial %d shard %d: shard is disconnected", trial, i)
			}
			for v := 0; v < sh.N(); v++ {
				if !sort.IntsAreSorted(sh.Neighbors(v)) {
					t.Fatalf("trial %d shard %d: neighbors of %d not sorted", trial, i, v)
				}
			}
		}
		if seen != n {
			t.Fatalf("trial %d: shards cover %d of %d vertices", trial, seen, n)
		}
	}
}

func TestCSREmpty(t *testing.T) {
	var c CSR
	if c.N() != 0 || c.M() != 0 {
		t.Fatalf("zero CSR: n=%d m=%d", c.N(), c.M())
	}
	c2 := NewCSR(New(0))
	if c2.N() != 0 || c2.M() != 0 || len(c2.ComponentShards()) != 0 {
		t.Fatalf("empty CSR: n=%d m=%d shards=%d", c2.N(), c2.M(), len(c2.ComponentShards()))
	}
	c3 := NewCSR(New(3))
	if _, count := c3.Components(); count != 3 || len(c3.ComponentShards()) != 3 {
		t.Fatalf("edgeless CSR: components=%d", count)
	}
}
