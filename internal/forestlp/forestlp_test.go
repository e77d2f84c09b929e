package forestlp

import (
	"math"
	"math/big"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

const tol = 1e-5

func value(t *testing.T, g *graph.Graph, delta float64, opts Options) float64 {
	t.Helper()
	v, _, err := Value(g, delta, opts)
	if err != nil {
		t.Fatalf("Value(Δ=%v): %v", delta, err)
	}
	return v
}

func approx(a, b float64) bool { return math.Abs(a-b) <= tol }

func TestValueRejectsBadDelta(t *testing.T) {
	g := generate.Path(3)
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := Value(g, d, Options{}); err == nil {
			t.Errorf("delta %v should be rejected", d)
		}
	}
}

func TestValueEmptyAndEdgeless(t *testing.T) {
	if v := value(t, graph.New(0), 1, Options{}); v != 0 {
		t.Fatalf("empty graph: %v", v)
	}
	if v := value(t, graph.New(7), 1, Options{}); v != 0 {
		t.Fatalf("edgeless graph: %v", v)
	}
}

// TestStarClosedForm: f_Δ(K_{1,k}) = min(k, Δ). The LP optimum puts weight
// min(1, Δ/k)... actually weight Δ/k per edge when Δ < k.
func TestStarClosedForm(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 9} {
		for _, delta := range []float64{1, 2, 3, 4, 8, 20} {
			g := generate.Star(k)
			want := math.Min(float64(k), delta)
			for _, disable := range []bool{false, true} {
				got := value(t, g, delta, Options{noFastPath: disable})
				if !approx(got, want) {
					t.Fatalf("f_%v(K_{1,%d}) = %v, want %v (fastpath disabled=%v)",
						delta, k, got, want, disable)
				}
			}
		}
	}
}

// TestCompleteClosedForm: f_Δ(K_n) = min(n−1, nΔ/2).
func TestCompleteClosedForm(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		for _, delta := range []float64{0.5, 1, 1.5, 2, 3} {
			g := generate.Complete(n)
			want := math.Min(float64(n-1), float64(n)*delta/2)
			got := value(t, g, delta, Options{noFastPath: true})
			if !approx(got, want) {
				t.Fatalf("f_%v(K_%d) = %v, want %v", delta, n, got, want)
			}
		}
	}
}

// TestCycleDeltaOne: f_1(C_n) = n/2 (uniform half weights).
func TestCycleDeltaOne(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8} {
		g := generate.Cycle(n)
		got := value(t, g, 1, Options{})
		if !approx(got, float64(n)/2) {
			t.Fatalf("f_1(C_%d) = %v, want %v", n, got, float64(n)/2)
		}
	}
}

// TestRemark34 reproduces Remark 3.4: G = Δ isolated vertices has
// f_Δ(G) = 0 while the cone G' = K_{1,Δ} has f_Δ(G') = Δ, witnessing that
// the Lipschitz constant Δ is tight.
func TestRemark34(t *testing.T) {
	for _, delta := range []int{1, 2, 5, 9} {
		iso := graph.New(delta)
		if v := value(t, iso, float64(delta), Options{}); v != 0 {
			t.Fatalf("f_Δ on isolated vertices = %v", v)
		}
		cone := generate.Star(delta)
		if v := value(t, cone, float64(delta), Options{}); !approx(v, float64(delta)) {
			t.Fatalf("f_Δ(K_{1,%d}) = %v, want %d", delta, v, delta)
		}
	}
}

// TestSpanningForestFastPath: trees evaluate to f_sf whenever Δ ≥ max
// degree, with the fast path and without.
func TestSpanningForestFastPath(t *testing.T) {
	g := generate.Caterpillar(5, 2) // tree with max degree 4
	want := float64(g.SpanningForestSize())
	for _, disable := range []bool{false, true} {
		got := value(t, g, 4, Options{noFastPath: disable})
		if !approx(got, want) {
			t.Fatalf("caterpillar f_4 = %v, want %v (disable=%v)", got, want, disable)
		}
	}
	_, stats, err := Value(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FastPathHits != 1 || stats.LPSolves != 0 {
		t.Fatalf("expected pure fast path, got %+v", stats)
	}
}

// TestAdditivityOverComponents: f_Δ of a disjoint union is the sum.
func TestAdditivityOverComponents(t *testing.T) {
	a := generate.Star(4)
	b := generate.Complete(5)
	c := generate.Cycle(6)
	u := generate.DisjointUnion(a, b, c)
	for _, delta := range []float64{1, 2, 3} {
		va := value(t, a, delta, Options{})
		vb := value(t, b, delta, Options{})
		vc := value(t, c, delta, Options{})
		vu := value(t, u, delta, Options{})
		if !approx(vu, va+vb+vc) {
			t.Fatalf("Δ=%v: union %v != %v+%v+%v", delta, vu, va, vb, vc)
		}
	}
}

// TestAgainstBruteForce cross-validates the cutting-plane evaluator against
// explicit constraint enumeration on random small graphs.
func TestAgainstBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(9)
		p := 0.15 + 0.6*rng.Float64()
		g := generate.ErdosRenyi(n, p, rng)
		for _, delta := range []float64{1, 2, 3} {
			want, err := ValueBruteForce(g, delta)
			if err != nil {
				t.Fatal(err)
			}
			got := value(t, g, delta, Options{noFastPath: seed%2 == 0})
			if !approx(got, want) {
				t.Fatalf("seed %d Δ=%v: cutting planes %v, brute force %v on %v",
					seed, delta, got, want, g)
			}
		}
	}
}

// TestAgainstRationalBruteForce certifies the float pipeline against exact
// rational arithmetic on a handful of instances.
func TestAgainstRationalBruteForce(t *testing.T) {
	for seed := uint64(100); seed < 112; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(7)
		g := generate.ErdosRenyi(n, 0.5, rng)
		for _, delta := range []int64{1, 2} {
			exact, err := ValueBruteForceRat(g, big.NewRat(delta, 1))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := exact.Float64()
			got := value(t, g, float64(delta), Options{})
			if !approx(got, want) {
				t.Fatalf("seed %d Δ=%d: got %v, exact %v", seed, delta, got, want)
			}
		}
	}
}

// TestLemma33Underestimation: f_Δ(G) ≤ f_sf(G) always.
func TestLemma33Underestimation(t *testing.T) {
	for seed := uint64(200); seed < 230; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(14)
		g := generate.ErdosRenyi(n, 0.3, rng)
		fsf := float64(g.SpanningForestSize())
		for _, delta := range []float64{1, 2, 4, 8} {
			got := value(t, g, delta, Options{})
			if got > fsf+tol {
				t.Fatalf("seed %d Δ=%v: f_Δ=%v > f_sf=%v", seed, delta, got, fsf)
			}
		}
	}
}

// TestLemma33Monotonicity: f_Δ1(G) ≤ f_Δ2(G) for Δ1 < Δ2.
func TestLemma33Monotonicity(t *testing.T) {
	for seed := uint64(300); seed < 325; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(12)
		g := generate.ErdosRenyi(n, 0.35, rng)
		prev := -1.0
		for _, delta := range []float64{0.5, 1, 2, 3, 5, 8} {
			got := value(t, g, delta, Options{})
			if got < prev-tol {
				t.Fatalf("seed %d: f_%v=%v < previous %v", seed, delta, got, prev)
			}
			prev = got
		}
	}
}

// TestLemma33Lipschitz: |f_Δ(G) − f_Δ(G−v)| ≤ Δ for every vertex v, and
// f_Δ(G−v) ≤ f_Δ(G) (monotone under node removal).
func TestLemma33Lipschitz(t *testing.T) {
	for seed := uint64(400); seed < 425; seed++ {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(10)
		g := generate.ErdosRenyi(n, 0.4, rng)
		for _, delta := range []float64{1, 2, 3} {
			fg := value(t, g, delta, Options{})
			for v := 0; v < g.N(); v++ {
				fh := value(t, g.RemoveVertex(v), delta, Options{})
				if fh > fg+tol {
					t.Fatalf("seed %d Δ=%v: f_Δ grew after removing %d (%v > %v)",
						seed, delta, v, fh, fg)
				}
				if fg-fh > delta+tol {
					t.Fatalf("seed %d Δ=%v: Lipschitz violated at %d (%v - %v > Δ)",
						seed, delta, v, fg, fh)
				}
			}
		}
	}
}

// TestAnchorSetLemma19: if G has a spanning Δ-forest then f_Δ(G) = f_sf(G)
// (Item 1 of Lemma 3.3), checked with the LP (fast path disabled).
func TestAnchorSetLemma19(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		delta float64
	}{
		{"path-d2", generate.Path(7), 2},
		{"cycle-d2", generate.Cycle(6), 2},
		{"K6-d2", generate.Complete(6), 2},
		{"grid-d3", generate.Grid(3, 4), 3},
		{"matching-d1", generate.Matching(5), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := float64(tc.g.SpanningForestSize())
			got := value(t, tc.g, tc.delta, Options{noFastPath: true})
			if !approx(got, want) {
				t.Fatalf("f_%v = %v, want f_sf = %v", tc.delta, got, want)
			}
		})
	}
}

// TestFractionalDelta exercises non-integer Δ (Definition 3.1 allows any
// Δ > 0): on K_{1,3}, f_Δ = min(3, Δ) still holds.
func TestFractionalDelta(t *testing.T) {
	g := generate.Star(3)
	for _, delta := range []float64{0.5, 1.5, 2.5, 3.5} {
		got := value(t, g, delta, Options{})
		want := math.Min(3, delta)
		if !approx(got, want) {
			t.Fatalf("f_%v(K_{1,3}) = %v, want %v", delta, got, want)
		}
	}
}

// TestMaxRoundsFailure: a tiny round budget must produce an error, not a
// wrong answer. The instance needs a genuine primal-dual gap — on K₄ at
// Δ = 1.5 the optimum is the fractional 3 (x ≡ ½) while the greedy capped
// forest reaches only 2, so the gap-pinch termination cannot fire — and a
// first relaxation whose vertices overload single edges past the pair
// bound, so at least two rounds are needed.
func TestMaxRoundsFailure(t *testing.T) {
	g := generate.Complete(4)
	_, _, err := Value(g, 1.5, Options{maxRounds: 1, noFastPath: true})
	if err == nil {
		t.Fatal("maxRounds=1 should fail on K_4 at Δ=1.5")
	}
}

// TestStatsAccounting sanity-checks the stats counters. A 4-cycle at Δ=1
// has no leaves to peel and no degree-1 spanning forest, so the LP must
// run; the singletons only bump the component count.
func TestStatsAccounting(t *testing.T) {
	g := generate.DisjointUnion(generate.Cycle(4), graph.New(3))
	v, stats, err := Value(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Components != 4 { // cycle + 3 singletons
		t.Fatalf("components=%d, want 4", stats.Components)
	}
	if stats.LPSolves == 0 {
		t.Fatal("C_4 at Δ=1 needs the LP")
	}
	if !approx(v, 2) { // f_1(C_4) = 2 (uniform half weights)
		t.Fatalf("f_1(C_4) = %v, want 2", v)
	}
}

// TestPeelResolvesStarsWithoutLP: after the exact leaf-peeling
// preprocessing, star components never reach the LP, yet the value is
// still min(k, Δ).
func TestPeelResolvesStarsWithoutLP(t *testing.T) {
	g := generate.Star(5)
	v, stats, err := Value(g, 2, Options{noFastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 2) {
		t.Fatalf("f_2(K_{1,5}) = %v, want 2", v)
	}
	if stats.LPSolves != 0 {
		t.Fatalf("peeling should have avoided the LP, got %d solves", stats.LPSolves)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	g := generate.Complete(maxBruteVertices + 1)
	if _, err := ValueBruteForce(g, 2); err == nil {
		t.Fatal("oversized component should be rejected")
	}
	if _, err := ValueBruteForceRat(g, big.NewRat(2, 1)); err == nil {
		t.Fatal("oversized component should be rejected (rational)")
	}
}
