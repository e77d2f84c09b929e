package forestlp

import (
	"math"
	"testing"
	"testing/quick"

	"nodedp/internal/generate"
)

// Property-based tests (testing/quick) over the core invariants of the
// extension evaluator. Each property draws a random small graph from a
// seed, so quick's generation stays cheap while the checked structure is
// nontrivial.

// TestQuickLipschitzProperty: for random (G, Δ, v),
// f_Δ(G−v) ≤ f_Δ(G) ≤ f_Δ(G−v) + Δ (Lemma 3.3 Lipschitzness plus
// monotonicity under node removal).
func TestQuickLipschitzProperty(t *testing.T) {
	f := func(seed uint64, deltaPick uint8, vPick uint8) bool {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(9)
		g := generate.ErdosRenyi(n, 0.15+0.5*rng.Float64(), rng)
		delta := float64(1 + deltaPick%4)
		v := int(vPick) % n
		fg, _, err := Value(g, delta, Options{})
		if err != nil {
			return false
		}
		fh, _, err := Value(g.RemoveVertex(v), delta, Options{})
		if err != nil {
			return false
		}
		return fh <= fg+tol && fg <= fh+delta+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDisjointAdditivity: f_Δ of a disjoint union is the sum of the
// parts, for random parts and Δ.
func TestQuickDisjointAdditivity(t *testing.T) {
	f := func(seedA, seedB uint64, deltaPick uint8) bool {
		rngA, rngB := generate.NewRand(seedA), generate.NewRand(seedB)
		a := generate.ErdosRenyi(2+rngA.IntN(7), 0.4, rngA)
		b := generate.ErdosRenyi(2+rngB.IntN(7), 0.4, rngB)
		delta := float64(1 + deltaPick%3)
		va, _, err := Value(a, delta, Options{})
		if err != nil {
			return false
		}
		vb, _, err := Value(b, delta, Options{})
		if err != nil {
			return false
		}
		vu, _, err := Value(generate.DisjointUnion(a, b), delta, Options{})
		if err != nil {
			return false
		}
		return math.Abs(vu-(va+vb)) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPeelInvariance: peeling on/off gives identical values.
func TestQuickPeelInvariance(t *testing.T) {
	f := func(seed uint64, deltaPick uint8) bool {
		rng := generate.NewRand(seed)
		n := 2 + rng.IntN(10)
		g := generate.ErdosRenyi(n, 1.5/float64(n)+0.2*rng.Float64(), rng)
		delta := float64(1 + deltaPick%4)
		withPeel, _, err := Value(g, delta, Options{noFastPath: true})
		if err != nil {
			return false
		}
		withoutPeel, _, err := Value(g, delta, Options{noFastPath: true, noPeel: true})
		if err != nil {
			return false
		}
		return math.Abs(withPeel-withoutPeel) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeMonotonicity: adding an edge never decreases f_Δ (the
// polytope only grows: every feasible x extends with weight 0).
func TestQuickEdgeMonotonicity(t *testing.T) {
	f := func(seed uint64, deltaPick uint8) bool {
		rng := generate.NewRand(seed)
		n := 3 + rng.IntN(8)
		g := generate.ErdosRenyi(n, 0.3, rng)
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v || g.HasEdge(u, v) {
			return true // nothing to add; vacuous
		}
		delta := float64(1 + deltaPick%3)
		before, _, err := Value(g, delta, Options{})
		if err != nil {
			return false
		}
		g2 := g.Clone()
		if err := g2.AddEdge(u, v); err != nil {
			return false
		}
		after, _, err := Value(g2, delta, Options{})
		if err != nil {
			return false
		}
		return after >= before-tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLPFailureInjection: a crippled simplex pivot budget must surface as
// an error from Value (never a silently wrong value).
func TestLPFailureInjection(t *testing.T) {
	g := generate.Cycle(6) // no leaves, no degree-1 spanning forest: LP must run
	_, _, err := Value(g, 1, Options{noFastPath: true, maxPivots: 1})
	if err == nil {
		t.Fatal("starved simplex should propagate an error")
	}
}
