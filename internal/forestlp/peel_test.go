package forestlp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// TestPeelPreservesValue is the load-bearing exactness property of the
// leaf-elimination preprocessing: on random small graphs, the full
// pipeline (which peels) must agree with the explicit brute-force LP
// (which does not).
func TestPeelPreservesValue(t *testing.T) {
	for seed := uint64(500); seed < 560; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(10)
		// Bias toward tree-like graphs so peeling actually fires.
		g := generate.ErdosRenyi(n, 1.3/float64(n)+0.1*rng.Float64(), rng)
		for _, delta := range []float64{1, 1.5, 2, 3} {
			want, err := ValueBruteForce(g, delta)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := Value(g, delta, Options{noFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > tol {
				t.Fatalf("seed %d Δ=%v: peeled pipeline %v != brute force %v on %v edges %v",
					seed, delta, got, want, g, g.Edges())
			}
		}
	}
}

func TestPeelStar(t *testing.T) {
	// K_{1,5} at Δ=2: two leaf edges saturate the center; everything peels.
	g := generate.Star(5)
	pieces, caps, fixed := peel(g, 2)
	if m := pieceEdges(pieces); m != 0 {
		t.Fatalf("star should peel completely, %d edges left", m)
	}
	if fixed != 2 {
		t.Fatalf("fixed = %v, want 2", fixed)
	}
	if caps[0] > 1e-9 {
		t.Fatalf("center capacity %v, want 0", caps[0])
	}
}

func TestPeelPath(t *testing.T) {
	// A path peels completely from both ends at Δ=2.
	g := generate.Path(6)
	pieces, _, fixed := peel(g, 2)
	if m := pieceEdges(pieces); m != 0 || fixed != 5 {
		t.Fatalf("path: %d edges left, fixed=%v; want 0, 5", m, fixed)
	}
}

func TestPeelCycleUntouched(t *testing.T) {
	// Cycles have no leaves: peel is the identity.
	g := generate.Cycle(5)
	pieces, caps, fixed := peel(g, 2)
	if m := pieceEdges(pieces); m != 5 || fixed != 0 {
		t.Fatalf("cycle: %d edges, fixed=%v; want 5, 0", m, fixed)
	}
	for v, c := range caps {
		if c != 2 {
			t.Fatalf("cap[%d] = %v, want 2", v, c)
		}
	}
}

func TestPeelLollipop(t *testing.T) {
	// Triangle with a pendant path: the path peels, the triangle stays,
	// and the attachment vertex loses one unit of budget.
	g := graph.MustFromEdges(5, []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(1, 2), graph.NewEdge(2, 0), // triangle
		graph.NewEdge(2, 3), graph.NewEdge(3, 4), // tail
	})
	pieces, caps, fixed := peel(g, 3)
	if m := pieceEdges(pieces); m != 3 {
		t.Fatalf("triangle should survive, %d edges left", m)
	}
	if fixed != 2 {
		t.Fatalf("fixed = %v, want 2 (two tail edges)", fixed)
	}
	if caps[2] != 2 {
		t.Fatalf("attachment budget %v, want 2", caps[2])
	}
	// End-to-end: f_3 = f_sf = 4 (the graph has a spanning 3-forest).
	v, _, err := Value(g, 3, Options{noFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4) > tol {
		t.Fatalf("f_3 = %v, want 4", v)
	}
}

func TestPeelFractionalBudget(t *testing.T) {
	// Δ = 0.5 on a single edge: the leaf rule fixes t = min(1, 0.5, 0.5).
	g := generate.Path(2)
	pieces, _, fixed := peel(g, 0.5)
	if pieceEdges(pieces) != 0 || math.Abs(fixed-0.5) > 1e-12 {
		t.Fatalf("edge at Δ=0.5: fixed=%v, want 0.5", fixed)
	}
}

// TestStallGracefulDegradation exercises the stall path: with the primal
// certificate disabled, the seed-160 giant component freezes on a
// degenerate optimal face; the evaluator must return the relaxation bound
// (not an error, and never above f_sf) and account for the event in Stats.
// (Skipped in -short mode: it needs a few hundred LP solves.)
func TestStallGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("stall reproduction is slow")
	}
	g := generate.ErdosRenyi(200, 2.0/200, generate.NewRand(160))
	v, stats, err := Value(g, 4, Options{noFastPath: true, maxRounds: 400, stallRounds: 40})
	if err != nil {
		t.Fatalf("stall must degrade gracefully, got %v", err)
	}
	if v > float64(g.SpanningForestSize())+tol {
		t.Fatalf("stalled value %v exceeds f_sf", v)
	}
	// Either the primal bound certified the value (no stall recorded) or
	// the gap was recorded; both are acceptable, a panic/error is not.
	if stats.StalledPieces > 0 && stats.StallGap <= 0 {
		t.Fatalf("stall recorded without a gap: %+v", stats)
	}
}

// pieceEdges is the edge count of the residual graph peel leaves.
func pieceEdges(pieces []piece) int {
	m := 0
	for _, pc := range pieces {
		m += pc.sub.M()
	}
	return m
}

// refPeel is leaf peeling written as direct edge deletion: it strips a
// clone of sub edge by edge with RemoveEdge and reads the pieces off the
// reduced graph with ComponentSets and InducedSubgraph. It is quadratic on
// a hub, which is why peel tracks residual degrees instead.
func refPeel(sub *graph.Graph, delta float64) (pieces []piece, caps []float64, fixed float64) {
	const eps = 1e-12
	g := sub.Clone()
	n := g.N()
	caps = uniformCaps(n, delta)
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if caps[v] <= eps && g.Degree(v) > 0 {
				for _, w := range g.Neighbors(v) {
					g.RemoveEdge(v, w)
				}
				changed = true
			}
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != 1 {
				continue
			}
			u := g.Neighbors(v)[0]
			t := math.Min(1, math.Min(caps[v], caps[u]))
			if t < 0 {
				t = 0
			}
			fixed += t
			caps[u] -= t
			g.RemoveEdge(v, u)
			changed = true
		}
	}
	for _, set := range g.ComponentSets() {
		if len(set) < 2 {
			continue
		}
		psub, orig, err := g.InducedSubgraph(set)
		if err != nil {
			panic(err)
		}
		pieces = append(pieces, piece{sub: psub, orig: orig})
	}
	return pieces, caps, fixed
}

// samePeel reports how peel's output differs from refPeel's on g at delta,
// comparing the pieces exactly and fixed and every cap bit for bit.
func samePeel(g *graph.Graph, delta float64) error {
	gotP, gotC, gotF := peel(g, delta)
	wantP, wantC, wantF := refPeel(g, delta)
	if math.Float64bits(gotF) != math.Float64bits(wantF) {
		return fmt.Errorf("fixed %v, want %v", gotF, wantF)
	}
	for v := range wantC {
		if math.Float64bits(gotC[v]) != math.Float64bits(wantC[v]) {
			return fmt.Errorf("cap[%d] = %v, want %v", v, gotC[v], wantC[v])
		}
	}
	if len(gotP) != len(wantP) {
		return fmt.Errorf("%d pieces, want %d", len(gotP), len(wantP))
	}
	for i := range wantP {
		if !slices.Equal(gotP[i].orig, wantP[i].orig) || !gotP[i].sub.Equal(wantP[i].sub) {
			return fmt.Errorf("piece %d: %v on %v, want %v on %v", i,
				gotP[i].sub.Edges(), gotP[i].orig, wantP[i].sub.Edges(), wantP[i].orig)
		}
	}
	return nil
}

// TestPeelMatchesReference pins peel to refPeel on random graphs, stars
// and the BENCH_sep.json families, whole and shard by shard, at every
// Δ of their grid and at fractional budgets.
func TestPeelMatchesReference(t *testing.T) {
	type named struct {
		name string
		g    *graph.Graph
	}
	var set []named
	for seed := uint64(0); seed < 80; seed++ {
		rng := generate.NewRand(700 + seed)
		n := 2 + rng.IntN(40)
		g := generate.ErdosRenyi(n, (0.8+2.5*rng.Float64())/float64(n), rng)
		if seed%4 == 0 {
			g = generate.WithHubs(g, 1+rng.IntN(3), 0.3, rng)
		}
		set = append(set, named{fmt.Sprintf("random-%d", seed), g})
	}
	for _, k := range []int{1, 2, 3, 7, 40} {
		set = append(set, named{fmt.Sprintf("star-%d", k), generate.Star(k)})
	}
	hubRng := generate.NewRand(41)
	set = append(set,
		named{"planted-er-giant", generate.PlantedComponents([]int{120}, 6.0/120, generate.NewRand(40))},
		named{"hub-clusters-giant", generate.WithHubs(
			generate.PlantedComponents([]int{60, 60}, 5.0/60, hubRng), 3, 0.25, hubRng)},
		named{"spider-er-a", goldenSpider(40, 54)},
		named{"spider-er-b", goldenSpider(40, 56)},
	)
	checked := 0
	for _, c := range set {
		grid, err := mechanism.PowerOfTwoGrid(float64(max(c.g.N(), 1)))
		if err != nil {
			t.Fatal(err)
		}
		graphs := []*graph.Graph{c.g}
		for _, sh := range graph.NewCSR(c.g).ComponentShards() {
			if sh.N() >= 2 {
				graphs = append(graphs, sh.Graph())
			}
		}
		for _, delta := range append(grid, 0.5, 1.5, 2.75) {
			for i, g := range graphs {
				if err := samePeel(g, delta); err != nil {
					t.Fatalf("%s (graph %d) at Δ=%v: %v", c.name, i, delta, err)
				}
				checked++
			}
		}
	}
	t.Logf("%d peels matched", checked)
}

// TestHubStaysLinear builds a 1,000,000-leaf star from shuffled edges
// through ReadEdgeList and FromEdges and peels it at Δ = 2. Inserting each
// edge into the hub's sorted run, or deleting the hub's edges one by one,
// would take O(deg²); each step must finish within 60 s.
func TestHubStaysLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-edge star")
	}
	const leaves = 1_000_000
	rng := generate.NewRand(1)
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: i + 1}
		if rng.IntN(2) == 0 {
			edges[i] = graph.Edge{U: i + 1, V: 0}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var text strings.Builder
	fmt.Fprintf(&text, "n %d\n", leaves+1)
	for _, e := range edges {
		fmt.Fprintf(&text, "%d %d\n", e.U, e.V)
	}
	step := func(name string, run func()) {
		t.Helper()
		start := time.Now()
		run()
		if d := time.Since(start); d > time.Minute {
			t.Fatalf("%s took %v on a %d-leaf star", name, d, leaves)
		}
	}
	var read, built *graph.Graph
	step("ReadEdgeList", func() {
		var err error
		if read, err = graph.ReadEdgeList(strings.NewReader(text.String()), leaves+1); err != nil {
			t.Fatal(err)
		}
	})
	step("FromEdges", func() {
		var err error
		if built, err = graph.FromEdges(leaves+1, edges); err != nil {
			t.Fatal(err)
		}
	})
	if read.M() != leaves || built.Degree(0) != leaves || !read.Equal(built) {
		t.Fatalf("read %v and built %v disagree", read, built)
	}
	step("peel", func() {
		pieces, caps, fixed := peel(built, 2)
		if len(pieces) != 0 || fixed != 2 || caps[0] != 0 {
			t.Fatalf("star at Δ=2: %d pieces, fixed %v, hub budget %v", len(pieces), fixed, caps[0])
		}
	})
	// Planning triages the star with the low-degree and capped greedy
	// forests; a greedy that rescans the edges per addition is O(n·m).
	grid, err := mechanism.PowerOfTwoGrid(float64(leaves + 1))
	if err != nil {
		t.Fatal(err)
	}
	step("plan and sweep", func() {
		values, _, err := NewPlan(built).GridValues(context.Background(), grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, delta := range grid {
			if want := math.Min(delta, leaves); values[i] != want {
				t.Fatalf("star at Δ=%v: f_Δ = %v, want %v", delta, values[i], want)
			}
		}
	})
}
