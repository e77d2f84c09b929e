package forestlp

import (
	"math"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
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
	reduced, caps, fixed := peel(g, 2)
	if reduced.M() != 0 {
		t.Fatalf("star should peel completely, %d edges left", reduced.M())
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
	reduced, _, fixed := peel(g, 2)
	if reduced.M() != 0 || fixed != 5 {
		t.Fatalf("path: %d edges left, fixed=%v; want 0, 5", reduced.M(), fixed)
	}
}

func TestPeelCycleUntouched(t *testing.T) {
	// Cycles have no leaves: peel is the identity.
	g := generate.Cycle(5)
	reduced, caps, fixed := peel(g, 2)
	if reduced.M() != 5 || fixed != 0 {
		t.Fatalf("cycle: %d edges, fixed=%v; want 5, 0", reduced.M(), fixed)
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
	reduced, caps, fixed := peel(g, 3)
	if reduced.M() != 3 {
		t.Fatalf("triangle should survive, %d edges left", reduced.M())
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
	reduced, _, fixed := peel(g, 0.5)
	if reduced.M() != 0 || math.Abs(fixed-0.5) > 1e-12 {
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
