package spanning

import (
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// bruteDeltaStar is Δ* by enumeration: the smallest Δ at which
// existsCappedForest, which copies its state instead of undoing unions,
// finds a spanning forest of maximum degree ≤ Δ.
func bruteDeltaStar(g *graph.Graph) int {
	for d := 0; ; d++ {
		if existsCappedForest(g, uniformCaps(g.N(), d)) {
			return d
		}
	}
}

// checkExactSearch compares HasSpanningForestMaxDegree at delta and
// MinMaxDegreeExact with the enumerator. It reports false if the search
// ran out of budget and so decided nothing.
func checkExactSearch(t *testing.T, g *graph.Graph, delta int) bool {
	t.Helper()
	has, exceeded := HasSpanningForestMaxDegree(g, delta, 0)
	if exceeded {
		return false
	}
	if want := existsCappedForest(g, uniformCaps(g.N(), delta)); has != want {
		t.Fatalf("n=%d edges %v: HasSpanningForestMaxDegree(Δ=%d) = %v, enumeration %v", g.N(), g.Edges(), delta, has, want)
	}
	got, exceeded := MinMaxDegreeExact(g, 0)
	if exceeded {
		return false
	}
	if want := bruteDeltaStar(g); got != want {
		t.Fatalf("n=%d edges %v: MinMaxDegreeExact = %d, enumeration %d", g.N(), g.Edges(), got, want)
	}
	return true
}

// TestExactSearchMatchesEnumeration cross-checks the exact search against
// enumeration on small ER graphs, where a search whose undo left unions
// behind disagreed on about one graph in fifty.
func TestExactSearchMatchesEnumeration(t *testing.T) {
	for seed := uint64(1); seed <= 3000; seed++ {
		rng := generate.NewRand(seed)
		n := 7 + rng.IntN(3)
		g := generate.ErdosRenyi(n, 0.25+0.3*rng.Float64(), rng)
		if !checkExactSearch(t, g, 2) {
			t.Fatalf("seed %d: search budget exceeded on %d vertices", seed, n)
		}
	}
}

// fuzzGraph decodes a fuzz input: n = 1 + nb%9 vertices, and bit k of
// pairs adds the k-th pair (u, v), u < v < 9, in lexicographic order,
// when both endpoints are below n.
func fuzzGraph(nb uint8, pairs uint64) *graph.Graph {
	n := 1 + int(nb%9)
	var edges []graph.Edge
	k := 0
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if pairs&(1<<k) != 0 && v < n {
				edges = append(edges, graph.NewEdge(u, v))
			}
			k++
		}
	}
	return graph.MustFromEdges(n, edges)
}

// fuzzPairs is fuzzGraph's inverse for a seed corpus entry.
func fuzzPairs(g *graph.Graph) uint64 {
	var pairs uint64
	k := 0
	for u := 0; u < 9; u++ {
		for v := u + 1; v < 9; v++ {
			if v < g.N() && g.HasEdge(u, v) {
				pairs |= 1 << k
			}
			k++
		}
	}
	return pairs
}

// FuzzHasSpanningForestMaxDegree compares the exact search with
// enumeration on graphs of at most 9 vertices, at Δ = 1 + db%4.
//
//	go test -run '^$' -fuzz FuzzHasSpanningForestMaxDegree -fuzztime 30s ./internal/spanning
func FuzzHasSpanningForestMaxDegree(f *testing.F) {
	for _, g := range []*graph.Graph{noHamiltonianPath(), hamiltonianPath()} {
		f.Add(uint8(g.N()-1), fuzzPairs(g), uint8(1))
	}
	f.Add(uint8(8), ^uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, nb uint8, pairs uint64, db uint8) {
		checkExactSearch(t, fuzzGraph(nb, pairs), 1+int(db%4))
	})
}
