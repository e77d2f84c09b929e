package spanning

import (
	"math"
	"reflect"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/unionfind"
)

func TestRepairOnStarBlocked(t *testing.T) {
	// K_{1,5} has s(G)=5; Repair with Δ=3 must return a 3-star witness.
	g := generate.Star(5)
	forest, star, err := Repair(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if forest != nil {
		t.Fatalf("K_{1,5} has no spanning 3-forest, got %v", forest)
	}
	if star == nil || len(star.Leaves) != 3 {
		t.Fatalf("witness %+v, want a 3-star", star)
	}
	if !g.IsInducedStar(star.Center, star.Leaves) {
		t.Fatalf("witness %+v is not an induced star", star)
	}
}

func TestRepairOnStarSucceeds(t *testing.T) {
	// K_{1,5} with Δ=5: the star itself is the spanning forest.
	g := generate.Star(5)
	forest, star, err := Repair(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if star != nil {
		t.Fatalf("unexpected witness %+v", star)
	}
	if !graph.IsSpanningForestOf(g, forest) || graph.MaxDegreeOfEdgeSet(g.N(), forest) > 5 {
		t.Fatalf("bad forest %v", forest)
	}
}

func TestRepairCompleteGraph(t *testing.T) {
	// K_n has s=1, so for any Δ >= 2 repair must find a spanning Δ-forest
	// (e.g. a Hamiltonian path for Δ=2).
	for _, n := range []int{2, 3, 5, 8, 12} {
		g := generate.Complete(n)
		forest, star, err := Repair(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if star != nil {
			t.Fatalf("K_%d: unexpected witness %+v", n, star)
		}
		if !graph.IsSpanningForestOf(g, forest) {
			t.Fatalf("K_%d: not a spanning forest", n)
		}
		if d := graph.MaxDegreeOfEdgeSet(n, forest); d > 2 {
			t.Fatalf("K_%d: max degree %d > 2", n, d)
		}
	}
}

func TestRepairMatchingDeltaOne(t *testing.T) {
	g := generate.Matching(6)
	forest, star, err := Repair(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if star != nil || !graph.IsSpanningForestOf(g, forest) {
		t.Fatalf("matching should repair at Δ=1: forest=%v star=%+v", forest, star)
	}
}

func TestRepairEdgeless(t *testing.T) {
	g := graph.New(4)
	forest, star, err := Repair(g, 1)
	if err != nil || star != nil || len(forest) != 0 {
		t.Fatalf("edgeless: forest=%v star=%+v err=%v", forest, star, err)
	}
}

func TestRepairBadDelta(t *testing.T) {
	if _, _, err := Repair(graph.New(1), 0); err == nil {
		t.Fatal("delta 0 should error")
	}
}

// TestRepairLemma18 is the headline property: for random graphs, compute
// s(G) by brute force over neighborhoods, then Repair with Δ = s(G)+1 must
// always succeed (Lemma 1.8: no induced Δ-star ⟹ spanning Δ-forest).
func TestRepairLemma18(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(25)
		p := 0.05 + 0.4*rng.Float64()
		g := generate.ErdosRenyi(n, p, rng)
		s := bruteForceMaxInducedStar(g)
		delta := s + 1
		forest, star, err := Repair(g, delta)
		if err != nil {
			t.Fatal(err)
		}
		if star != nil {
			t.Fatalf("seed %d: repair blocked at Δ=s+1=%d with witness %+v (s=%d)", seed, delta, star, s)
		}
		if !graph.IsSpanningForestOf(g, forest) {
			t.Fatalf("seed %d: result is not a spanning forest", seed)
		}
		if d := graph.MaxDegreeOfEdgeSet(n, forest); d > delta {
			t.Fatalf("seed %d: forest degree %d > Δ=%d", seed, d, delta)
		}
	}
}

// TestRepairWitnessIsInducedStar: whenever repair is blocked the returned
// witness must be a genuine induced Δ-star.
func TestRepairWitnessIsInducedStar(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		rng := generate.NewRand(seed)
		n := 3 + rng.IntN(20)
		g := generate.ErdosRenyi(n, 0.15, rng)
		for delta := 1; delta <= 4; delta++ {
			forest, star, err := Repair(g, delta)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case forest != nil:
				if !graph.IsSpanningForestOf(g, forest) {
					t.Fatalf("seed %d Δ=%d: bad forest", seed, delta)
				}
				if d := graph.MaxDegreeOfEdgeSet(n, forest); d > delta {
					t.Fatalf("seed %d Δ=%d: degree %d too high", seed, delta, d)
				}
			case star != nil:
				if len(star.Leaves) != delta || !g.IsInducedStar(star.Center, star.Leaves) {
					t.Fatalf("seed %d Δ=%d: bad witness %+v", seed, delta, star)
				}
			default:
				t.Fatalf("seed %d Δ=%d: neither forest nor witness", seed, delta)
			}
		}
	}
}

func TestImproveDegreeStarPlusPath(t *testing.T) {
	// Star center 0 with leaves 1..4, plus path edges 1-2, 2-3, 3-4.
	// BFS from 0 yields the star (degree 4); swaps can reach degree 2.
	g := graph.MustFromEdges(5, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 3), graph.NewEdge(0, 4),
		graph.NewEdge(1, 2), graph.NewEdge(2, 3), graph.NewEdge(3, 4),
	})
	forest, deg := LowDegreeSpanningForest(g)
	if !graph.IsSpanningForestOf(g, forest) {
		t.Fatal("not a spanning forest")
	}
	if deg > 2 {
		t.Fatalf("local search degree %d, want ≤ 2", deg)
	}
}

func TestImproveDegreePreservesSpanning(t *testing.T) {
	for seed := uint64(200); seed < 230; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(30)
		g := generate.ErdosRenyi(n, 0.2, rng)
		forest, deg := LowDegreeSpanningForest(g)
		if !graph.IsSpanningForestOf(g, forest) {
			t.Fatalf("seed %d: not spanning", seed)
		}
		if deg != graph.MaxDegreeOfEdgeSet(n, forest) {
			t.Fatalf("seed %d: reported degree mismatch", seed)
		}
	}
}

func TestHasSpanningForestMaxDegree(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		delta int
		want  bool
	}{
		{"star5-d4", generate.Star(5), 4, false},
		{"star5-d5", generate.Star(5), 5, true},
		{"K4-d1", generate.Complete(4), 1, false},
		{"K4-d2", generate.Complete(4), 2, true},
		{"path-d1", generate.Path(4), 1, false},
		{"path-d2", generate.Path(4), 2, true},
		{"matching-d1", generate.Matching(3), 1, true},
		{"edgeless-d0", graph.New(3), 0, true},
		{"edge-d0", generate.Path(2), 0, false},
		{"no-hamiltonian-path-d2", noHamiltonianPath(), 2, false},
		{"no-hamiltonian-path-d3", noHamiltonianPath(), 3, true},
		{"hamiltonian-path-d2", hamiltonianPath(), 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, exceeded := HasSpanningForestMaxDegree(tc.g, tc.delta, 0)
			if exceeded {
				t.Fatal("budget exceeded on tiny instance")
			}
			if got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMinMaxDegreeExact(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"edgeless", graph.New(4), 0},
		{"single-edge", generate.Path(2), 1},
		{"path", generate.Path(6), 2},
		{"cycle", generate.Cycle(6), 2},
		{"star7", generate.Star(7), 7},
		{"K5", generate.Complete(5), 2},
		{"matching", generate.Matching(4), 1},
		{"grid", generate.Grid(3, 3), 2}, // 3x3 grid has a Hamiltonian path
		{"K33", generate.CompleteBipartite(3, 3), 2},
		{"no-hamiltonian-path", noHamiltonianPath(), 3},
		{"hamiltonian-path", hamiltonianPath(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, exceeded := MinMaxDegreeExact(tc.g, 0)
			if exceeded {
				t.Fatal("budget exceeded")
			}
			if got != tc.want {
				t.Fatalf("Δ* = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestLocalSearchVsExact measures the local search against exact Δ* on
// small random graphs: it must never be below Δ* and is allowed limited
// slack above (it is a heuristic; we assert ≤ Δ*+2 to catch regressions).
func TestLocalSearchVsExact(t *testing.T) {
	for seed := uint64(300); seed < 340; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(12)
		g := generate.ErdosRenyi(n, 0.3, rng)
		exact, exceeded := MinMaxDegreeExact(g, 0)
		if exceeded {
			t.Skip("budget exceeded (unexpected on tiny graphs)")
		}
		_, heur := LowDegreeSpanningForest(g)
		if g.M() == 0 {
			if heur != 0 {
				t.Fatalf("seed %d: edgeless heuristic degree %d", seed, heur)
			}
			continue
		}
		if heur < exact {
			t.Fatalf("seed %d: heuristic %d below exact %d (impossible)", seed, heur, exact)
		}
		if heur > exact+2 {
			t.Fatalf("seed %d: heuristic %d much worse than exact %d", seed, heur, exact)
		}
	}
}

// noHamiltonianPath and hamiltonianPath are the graphs on which a union-find
// whose find compresses paths broke the exact search's undo: the first has
// no Hamiltonian path (Δ* = 3) but was reported to have one, and the second
// has 6-0-2-5-1-4-7-3-8 (Δ* = 2) but was reported Δ* = 3.
func noHamiltonianPath() *graph.Graph {
	return graph.MustFromEdges(8, []graph.Edge{
		graph.NewEdge(0, 2), graph.NewEdge(0, 3), graph.NewEdge(1, 3), graph.NewEdge(1, 6), graph.NewEdge(1, 7),
		graph.NewEdge(2, 3), graph.NewEdge(3, 7), graph.NewEdge(4, 7), graph.NewEdge(5, 6), graph.NewEdge(6, 7),
	})
}

func hamiltonianPath() *graph.Graph {
	return graph.MustFromEdges(9, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 6), graph.NewEdge(1, 2), graph.NewEdge(1, 4),
		graph.NewEdge(1, 5), graph.NewEdge(1, 7), graph.NewEdge(2, 5), graph.NewEdge(2, 7), graph.NewEdge(3, 7),
		graph.NewEdge(3, 8), graph.NewEdge(4, 7), graph.NewEdge(5, 7),
	})
}

// bruteForceMaxInducedStar computes s(G) by enumerating subsets of each
// neighborhood — exponential, for test graphs only.
func bruteForceMaxInducedStar(g *graph.Graph) int {
	best := 0
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		if len(nbrs) > 22 {
			panic("test graph neighborhood too large for brute force")
		}
		for mask := 0; mask < 1<<len(nbrs); mask++ {
			var set []int
			for i, w := range nbrs {
				if mask&(1<<i) != 0 {
					set = append(set, w)
				}
			}
			if len(set) > best && g.IsIndependentSet(set) {
				best = len(set)
			}
		}
	}
	return best
}

// forestPath is the reference path finder: a breadth-first search from u
// that returns the unique u–w path in f, or nil if they are in different
// trees.
func forestPath(f *forest, u, w int) []int {
	if u == w {
		return []int{u}
	}
	n := len(f.adj)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == w {
			break
		}
		for _, y := range f.adj[x] {
			if parent[y] == -1 {
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	if parent[w] == -1 {
		return nil
	}
	var rev []int
	for x := w; ; x = parent[x] {
		rev = append(rev, x)
		if x == u {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// refImproveDegree and refCappedSpanningForest are the local searches
// written directly on forestPath: one search per non-tree edge, the edge
// list re-read every pass.
func refImproveDegree(g *graph.Graph, forestEdges []graph.Edge) ([]graph.Edge, int) {
	f := newForest(g.N())
	for _, e := range forestEdges {
		f.add(e.U, e.V)
	}
	for swapped := true; swapped; {
		k := 0
		for v := 0; v < g.N(); v++ {
			k = max(k, f.degree(v))
		}
		if k <= 1 {
			break
		}
		swapped = false
	pass:
		for _, e := range g.Edges() {
			u, w := e.U, e.V
			if f.has(u, w) || f.degree(u) > k-2 || f.degree(w) > k-2 {
				continue
			}
			path := forestPath(f, u, w)
			for i := 1; i+1 < len(path); i++ {
				if f.degree(path[i]) == k {
					f.remove(path[i], path[i-1])
					f.add(u, w)
					swapped = true
					break pass
				}
			}
		}
	}
	edges := f.edges()
	return edges, graph.MaxDegreeOfEdgeSet(g.N(), edges)
}

func refCappedSpanningForest(g *graph.Graph, caps []int) ([]graph.Edge, bool) {
	f := newForest(g.N())
	for _, e := range refGreedyCappedForest(g, caps) {
		f.add(e.U, e.V)
	}
	for swapped := true; swapped; {
		swapped = false
	pass:
		for _, e := range g.Edges() {
			u, w := e.U, e.V
			if f.has(u, w) {
				continue
			}
			path := forestPath(f, u, w)
			for i := 1; i+1 < len(path); i++ {
				z := path[i]
				if f.degree(z) <= caps[z] {
					continue
				}
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
					swapped = true
					break pass
				}
			}
		}
	}
	edges := f.edges()
	for v := range caps {
		if f.degree(v) > caps[v] {
			return edges, false
		}
	}
	return edges, true
}

// refGreedyCappedForest is the capped greedy written as a scan: for each
// edge it adds, it rescans every live edge for the largest (minimum
// headroom, other headroom), ties to the lowest edge index.
func refGreedyCappedForest(g *graph.Graph, caps []int) []graph.Edge {
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
		e := edges[best]
		edges[best].U = -1
		dsu.Union(e.U, e.V)
		deg[e.U]++
		deg[e.V]++
		forest = append(forest, e)
	}
	return forest
}

// checkGreedyCapped requires greedyCappedForest to return the scan's edges
// in the scan's order.
func checkGreedyCapped(t *testing.T, g *graph.Graph, caps []int) {
	t.Helper()
	if got, want := greedyCappedForest(g, caps), refGreedyCappedForest(g, caps); !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d edges %v caps %v: greedyCappedForest = %v, scan %v", g.N(), g.Edges(), caps, got, want)
	}
}

// centeredStar is a star on n vertices whose center is vertex c, so that
// leaves sit on both sides of it in the edge order.
func centeredStar(n, c int) *graph.Graph {
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		if v != c {
			edges = append(edges, graph.NewEdge(c, v))
		}
	}
	return graph.MustFromEdges(n, edges)
}

// TestGreedyCappedMatchesScanReference checks that the heap greedy picks
// the scan's edges in the scan's order on ER, geometric, Chung–Lu, hub,
// caterpillar, complete, complete bipartite and star graphs, under zero
// caps, random caps in 0–3 and random caps in 1–6.
func TestGreedyCappedMatchesScanReference(t *testing.T) {
	checked := 0
	for seed := uint64(1); seed <= 150; seed++ {
		rng := generate.NewRand(seed)
		n := 4 + rng.IntN(50)
		er := generate.ErdosRenyi(n, (1+3*rng.Float64())/float64(n), rng)
		graphs := []*graph.Graph{
			er,
			generate.Geometric(n, 1.5/math.Sqrt(float64(n)), rng),
			generate.ChungLu(generate.PowerLawWeights(n, 2.5, 3), rng),
			generate.WithHubs(er, 1+rng.IntN(3), 0.2+0.4*rng.Float64(), rng),
			generate.Caterpillar(1+rng.IntN(8), rng.IntN(5)),
			generate.Complete(2 + rng.IntN(9)),
			generate.CompleteBipartite(1+rng.IntN(5), 1+rng.IntN(8)),
			centeredStar(n, rng.IntN(n)),
		}
		for _, g := range graphs {
			zero := make([]int, g.N())
			low := make([]int, g.N())
			high := make([]int, g.N())
			for v := range low {
				low[v] = rng.IntN(4)
				high[v] = 1 + rng.IntN(6)
			}
			for _, caps := range [][]int{zero, low, high} {
				checkGreedyCapped(t, g, caps)
				checked++
			}
		}
	}
	t.Logf("%d graph-cap pairs matched", checked)
}

// fuzzCappedInput decodes a fuzz input: n = 1 + data[0]%12 vertices, then
// one bit per vertex pair (u, v), u < v, in lexicographic order, then one
// byte per vertex for its cap (byte%8; missing bytes give 0).
func fuzzCappedInput(data []byte) (*graph.Graph, []int) {
	if len(data) == 0 {
		return graph.New(1), []int{0}
	}
	n := 1 + int(data[0])%12
	data = data[1:]
	var edges []graph.Edge
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if k/8 < len(data) && data[k/8]&(1<<(k%8)) != 0 {
				edges = append(edges, graph.NewEdge(u, v))
			}
			k++
		}
	}
	data = data[min((k+7)/8, len(data)):]
	caps := make([]int, n)
	for v := range caps {
		if v < len(data) {
			caps[v] = int(data[v]) % 8
		}
	}
	return graph.MustFromEdges(n, edges), caps
}

// FuzzGreedyCappedForest compares the heap greedy with the scan on graphs
// of at most 12 vertices.
//
//	go test -run '^$' -fuzz FuzzGreedyCappedForest -fuzztime 30s ./internal/spanning
func FuzzGreedyCappedForest(f *testing.F) {
	f.Add([]byte{11, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{7, 0x7f, 0, 0, 0, 3, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{9, 0x55, 0xaa, 0x55, 0xaa, 0x55, 2, 0, 3, 1, 2, 0, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, caps := fuzzCappedInput(data)
		checkGreedyCapped(t, g, caps)
	})
}

// refGreedyLowDegreeForest is the degree-greedy Kruskal forest written
// directly: repeatedly add the acyclic edge whose endpoints currently have
// the smallest degrees, (max, min) compared lexicographically, ties to the
// lowest edge index.
func refGreedyLowDegreeForest(g *graph.Graph) []graph.Edge {
	n := g.N()
	deg := make([]int, n)
	dsu := make([]int, n)
	for i := range dsu {
		dsu[i] = i
	}
	find := func(x int) int {
		for dsu[x] != x {
			dsu[x] = dsu[dsu[x]]
			x = dsu[x]
		}
		return x
	}
	edges := g.Edges()
	target := g.SpanningForestSize()
	forest := make([]graph.Edge, 0, target)
	for len(forest) < target {
		best := -1
		bestKey := [2]int{1 << 30, 1 << 30}
		for i, e := range edges {
			if e.U < 0 {
				continue
			}
			if find(e.U) == find(e.V) {
				edges[i].U = -1
				continue
			}
			hi, lo := deg[e.U], deg[e.V]
			if hi < lo {
				hi, lo = lo, hi
			}
			if hi < bestKey[0] || (hi == bestKey[0] && lo < bestKey[1]) {
				best, bestKey = i, [2]int{hi, lo}
			}
		}
		e := edges[best]
		edges[best].U = -1
		dsu[find(e.U)] = find(e.V)
		deg[e.U]++
		deg[e.V]++
		forest = append(forest, e)
	}
	return forest
}

// TestGreedyCappedMatchesLowDegreeReference checks that greedyCappedForest
// under uniform caps is the degree-greedy forest: with every cap equal,
// the largest headroom is the smallest degree, so it must return the
// reference's edge list, whatever the cap.
func TestGreedyCappedMatchesLowDegreeReference(t *testing.T) {
	graphs := []*graph.Graph{
		generate.Star(40), generate.Caterpillar(12, 5), generate.Caterpillar(1, 3),
		generate.Complete(6), graph.New(5),
	}
	for seed := uint64(1); seed <= 120; seed++ {
		rng := generate.NewRand(seed)
		n := 10 + rng.IntN(60)
		switch seed % 3 {
		case 0:
			graphs = append(graphs, randomSearchGraph(seed))
		case 1:
			g := generate.ErdosRenyi(n, (1+2*rng.Float64())/float64(n), rng)
			graphs = append(graphs, generate.WithHubs(g, 1+rng.IntN(3), 0.2+0.4*rng.Float64(), rng))
		default:
			graphs = append(graphs, generate.Geometric(n, 1.5/math.Sqrt(float64(n)), rng))
		}
	}
	for i, g := range graphs {
		want := refGreedyLowDegreeForest(g)
		for _, c := range []int{0, 1, 3, 1000} {
			if got := greedyCappedForest(g, uniformCaps(g.N(), c)); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d (n=%d, m=%d) caps %d: greedyCappedForest = %v, reference %v",
					i, g.N(), g.M(), c, got, want)
			}
		}
	}
}

// randomSearchGraph draws a small ER graph, with hubs on odd seeds, sparse
// enough to have several components at times.
func randomSearchGraph(seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	n := 5 + rng.IntN(30)
	g := generate.ErdosRenyi(n, (1+3*rng.Float64())/float64(n), rng)
	if seed%2 == 1 {
		g = generate.WithHubs(g, 1+rng.IntN(2), 0.3, rng)
	}
	return g
}

// TestRootedPathMatchesSearch checks the rooted forest's paths against the
// breadth-first reference on random forests: orientation u→w, the u = w
// path, and nil across trees.
func TestRootedPathMatchesSearch(t *testing.T) {
	crossTree := 0
	for seed := uint64(1); seed <= 80; seed++ {
		g := randomSearchGraph(seed)
		n := g.N()
		f := newForest(n)
		for _, e := range g.SpanningForest() {
			f.add(e.U, e.V)
		}
		rf := newRootedForest(n)
		rf.root(f)
		for u := 0; u < n; u++ {
			for w := 0; w < n; w++ {
				want := forestPath(f, u, w)
				if got := rf.path(u, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: path(%d,%d) = %v, reference %v", seed, u, w, got, want)
				}
				if want == nil {
					crossTree++
				}
			}
		}
	}
	if crossTree == 0 {
		t.Fatal("no pair in different trees — the nil case went untested")
	}
}

// TestLocalSearchMatchesReference checks that the rooted-path local
// searches return exactly the forests of the reference loops on random ER
// and hub graphs, with random per-vertex caps.
func TestLocalSearchMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 250; seed++ {
		g := randomSearchGraph(seed)
		for _, start := range [][]graph.Edge{g.SpanningForest(), refGreedyLowDegreeForest(g)} {
			got, gotDeg := ImproveDegree(g, start)
			want, wantDeg := refImproveDegree(g, start)
			if gotDeg != wantDeg || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ImproveDegree = %v (Δ %d), reference %v (Δ %d)", seed, got, gotDeg, want, wantDeg)
			}
		}
		rng := generate.NewRand(seed ^ 0x5eed)
		for trial := 0; trial < 3; trial++ {
			caps := make([]int, g.N())
			for v := range caps {
				caps[v] = 1 + rng.IntN(4)
			}
			got, gotOK := CappedSpanningForest(g, caps)
			want, wantOK := refCappedSpanningForest(g, caps)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d caps %v: CappedSpanningForest = %v (%v), reference %v (%v)",
					seed, caps, got, gotOK, want, wantOK)
			}
		}
	}
}
