package nodedp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"nodedp/internal/generate"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestQuickstartFlow(t *testing.T) {
	g := NewGraph(5)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	res, err := EstimateComponentCount(g, Options{Epsilon: 1, Rand: NewRand(1)})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Value) {
		t.Fatal("NaN release")
	}
}

func TestGraphFromEdgesAndIO(t *testing.T) {
	g, err := GraphFromEdges(4, []Edge{NewEdge(0, 1), NewEdge(2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("round trip mismatch")
	}
}

func TestLipschitzExtensionValueFacade(t *testing.T) {
	g := Star(6)
	v, stats, err := LipschitzExtensionValue(g, 3, LipschitzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3) > 1e-5 {
		t.Fatalf("f_3(K_{1,6}) = %v, want 3", v)
	}
	if stats.Components == 0 {
		t.Fatal("stats should be populated")
	}
}

func TestAnalysisHelpers(t *testing.T) {
	g := Star(5)
	star, err := MaxInducedStar(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if star.Size != 5 {
		t.Fatalf("s(K_{1,5}) = %d, want 5", star.Size)
	}
	forest, witness, err := SpanningForestWithRepair(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if witness != nil || len(forest) != 5 {
		t.Fatalf("repair: forest=%v witness=%+v", forest, witness)
	}
	_, deg := LowDegreeSpanningForest(Complete(6))
	if deg > 3 {
		t.Fatalf("K_6 low-degree forest degree %d", deg)
	}
}

func TestGeneratorsFacade(t *testing.T) {
	rng := NewRand(42)
	if g := ErdosRenyi(50, 0.1, rng); g.N() != 50 {
		t.Fatal("ErdosRenyi facade broken")
	}
	if g := GeometricGraph(30, 0.2, rng); g.N() != 30 {
		t.Fatal("GeometricGraph facade broken")
	}
	if g := SBM([]int{5, 5}, 1, 0, rng); g.CountComponents() != 2 {
		t.Fatal("SBM facade broken")
	}
	if g := PlantedComponents([]int{3, 3}, 1, rng); g.CountComponents() != 2 {
		t.Fatal("PlantedComponents facade broken")
	}
	if g := WithHubs(Matching(5), 1, 1, rng); g.MaxDegree() != 10 {
		t.Fatal("WithHubs facade broken")
	}
	if Path(4).M() != 3 || Cycle(4).M() != 4 || Complete(4).M() != 6 || Matching(4).M() != 4 || Star(4).M() != 4 {
		t.Fatal("structured generators broken")
	}
}

func TestBaselinesFacade(t *testing.T) {
	g := Matching(20)
	rng := NewRand(7)
	edge, err := EdgeDPComponentCount(rng, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(edge-20) > 25 {
		t.Fatalf("edge-DP estimate %v implausible", edge)
	}
	if _, err := NaiveNodeDPComponentCount(rng, g, 1); err != nil {
		t.Fatal(err)
	}
}

func TestKnownNFacade(t *testing.T) {
	g := Matching(25)
	res, err := EstimateComponentCountKnownN(g, Options{Epsilon: 2, Rand: NewRand(9)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-25) > 25 {
		t.Fatalf("estimate %v too far from 25", res.Value)
	}
	sf, err := EstimateSpanningForestSize(g, Options{Epsilon: 2, Rand: NewRand(10)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sf.Value-25) > 25 {
		t.Fatalf("f_sf estimate %v too far from 25", sf.Value)
	}
}

func TestSessionFacade(t *testing.T) {
	g := Matching(20)
	ctx := context.Background()
	cache := NewPlanCache(0)
	sess, err := Open(ctx, g, SessionOptions{TotalBudget: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	// A seeded session query equals the one-shot call with the same seed.
	oneShot, err := EstimateComponentCountCtx(ctx, g, Options{Epsilon: 0.5, Rand: NewRand(42)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != oneShot.Value {
		t.Fatalf("session release %v != one-shot release %v", res.Value, oneShot.Value)
	}
	if sess.Remaining() != 1.5 {
		t.Fatalf("Remaining = %v, want 1.5", sess.Remaining())
	}

	// Batch with per-request ε/mode/seed on the same plan.
	resps := sess.Do(ctx, []BatchRequest{
		{Op: OpSpanningForestSize, Epsilon: 0.5, Seed: 1},
		{Op: OpComponentCount, Mode: ModeKnownN, Epsilon: 0.5, Seed: 2},
		{Op: OpComponentCount, Epsilon: 9, Seed: 3}, // over budget
	})
	if resps[0].Err != nil || resps[1].Err != nil {
		t.Fatalf("batch errors: %v, %v", resps[0].Err, resps[1].Err)
	}
	if !errors.Is(resps[2].Err, ErrBudgetExhausted) {
		t.Fatalf("over-budget request: err = %v, want ErrBudgetExhausted", resps[2].Err)
	}
	if st := sess.Stats(); st.PlansBuilt != 1 || st.Admitted != 3 || st.Rejected != 1 {
		t.Fatalf("session stats %+v, want 1 plan, 3 admitted, 1 rejected", st)
	}

	// A second session on an equal graph is served from the cache.
	sess2, err := Open(ctx, g.Clone(), SessionOptions{TotalBudget: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st := sess2.Stats(); st.PlansBuilt != 0 || !st.CacheHit {
		t.Fatalf("second open stats %+v, want a cache hit", st)
	}
	if hits := cache.Stats().Hits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if g.Fingerprint() != sess2.Fingerprint() {
		t.Fatal("fingerprint mismatch between graph and session")
	}
}

// TestFixedDeltaRefusesStalledEvaluation: on a spider, the one-shot
// evaluation at a Δ below the hub's forced degree stalls and returns a
// relaxation bound instead of f_Δ. The fixed-Δ release must refuse it
// rather than publish it behind Δ/ε noise; at a Δ the spanning-forest fast
// path settles, it releases.
func TestFixedDeltaRefusesStalledEvaluation(t *testing.T) {
	g := spiderGraph(12, 4, 5, 0.65, 1)
	if _, st, err := LipschitzExtensionValue(g, 8, LipschitzOptions{}); err != nil || st.StalledPieces == 0 {
		t.Fatalf("precondition: want a stalled evaluation at Δ=8, got %+v, %v", st, err)
	}
	rng := generate.NewRand(1)
	if v, err := FixedDeltaComponentCountKnownN(rng, g, 8, 1e9, LipschitzOptions{}); err == nil {
		t.Fatalf("stalled evaluation released %v", v)
	}
	if _, err := FixedDeltaComponentCountKnownN(rng, g, 16, 1, LipschitzOptions{}); err != nil {
		t.Fatalf("Δ=16: %v", err)
	}
}
