package core

import (
	"context"
	"math"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

func TestOptionsValidation(t *testing.T) {
	g := generate.Path(4)
	if _, err := EstimateSpanningForestSize(g, Options{}); err == nil {
		t.Error("missing epsilon should fail")
	}
	if _, err := EstimateSpanningForestSize(g, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should fail")
	}
}

func TestEstimateSFAccuracyOnPath(t *testing.T) {
	// A path has Δ* = 2: the estimate should concentrate near f_sf with
	// error O(Δ*·lnln n/ε). We assert a generous bound over repetitions.
	g := generate.Path(200)
	fsf := float64(g.SpanningForestSize())
	rng := generate.NewRand(1)
	const trials = 30
	maxErr := 0.0
	for i := 0; i < trials; i++ {
		res, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(res.Value - fsf); e > maxErr {
			maxErr = e
		}
		if res.Delta < 1 {
			t.Fatalf("selected Δ̂=%v < 1", res.Delta)
		}
	}
	if maxErr > 120 {
		t.Fatalf("max error %v too large for a path at ε=1", maxErr)
	}
}

func TestEstimateSFSelectsSmallDeltaOnMatching(t *testing.T) {
	// A perfect matching has a spanning 1-forest, so f_1 = f_sf and GEM
	// should pick Δ̂ = 1 or 2 almost always.
	g := generate.Matching(100)
	rng := generate.NewRand(2)
	small := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		res, err := EstimateSpanningForestSize(g, Options{Epsilon: 2, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delta <= 2 {
			small++
		}
	}
	if small < trials*3/4 {
		t.Fatalf("GEM picked Δ̂ ≤ 2 only %d/%d times", small, trials)
	}
}

func TestEstimateSFDiagnostics(t *testing.T) {
	g := generate.Star(10)
	res, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: generate.NewRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Grid for n=11: {1,2,4,8} (Δmax = 11).
	if len(res.Evaluations) != 4 {
		t.Fatalf("grid size %d, want 4", len(res.Evaluations))
	}
	// f_Δ(K_{1,10}) = min(10, Δ); check the recorded diagnostics.
	for _, ev := range res.Evaluations {
		want := math.Min(10, ev.Delta)
		if math.Abs(ev.FDelta-want) > 1e-5 {
			t.Fatalf("f_%v = %v, want %v", ev.Delta, ev.FDelta, want)
		}
	}
	if res.NoiseScale <= 0 {
		t.Fatal("noise scale must be positive")
	}
}

func TestEstimateComponentCount(t *testing.T) {
	// 50 planted triangles: f_cc = 50. ε=2 should land nearby.
	sizes := make([]int, 50)
	for i := range sizes {
		sizes[i] = 3
	}
	g := generate.PlantedComponents(sizes, 1.0, generate.NewRand(4))
	rng := generate.NewRand(5)
	res, err := EstimateComponentCount(g, Options{Epsilon: 2, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-50) > 40 {
		t.Fatalf("estimate %v too far from 50", res.Value)
	}
	if res.NHat == 0 {
		t.Fatal("NHat should be set in component-count mode")
	}
}

func TestEstimateComponentCountKnownN(t *testing.T) {
	g := generate.Matching(30) // f_cc = 30, n = 60
	rng := generate.NewRand(6)
	res, err := EstimateComponentCountKnownN(g, Options{Epsilon: 2, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.NHat != 60 {
		t.Fatalf("known n should be exact, got %v", res.NHat)
	}
	if math.Abs(res.Value-30) > 25 {
		t.Fatalf("estimate %v too far from 30", res.Value)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.New(0), graph.New(1), graph.New(5)} {
		res, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: generate.NewRand(7)})
		if err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
		// f_sf = 0; the noisy estimate should at least be finite and the
		// extension value exactly 0.
		if res.FDelta != 0 {
			t.Fatalf("n=%d: f_Δ̂ = %v, want 0", g.N(), res.FDelta)
		}
		if math.IsNaN(res.Value) {
			t.Fatalf("n=%d: NaN release", g.N())
		}
	}
}

func TestDeterministicWithSeededRand(t *testing.T) {
	g := generate.ErdosRenyi(40, 0.05, generate.NewRand(8))
	a, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: generate.NewRand(9)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: generate.NewRand(9)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Delta != b.Delta {
		t.Fatal("same seed must reproduce the release exactly")
	}
}

func TestCryptoRandDefault(t *testing.T) {
	// With no Rand supplied, the crypto source is used; just a smoke test.
	g := generate.Path(5)
	if _, err := EstimateSpanningForestSize(g, Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestBetaDefaultClamped(t *testing.T) {
	for _, n := range []int{0, 1, 10, 15, 16} {
		if b := gemBeta(n); b != 0.5 {
			t.Fatalf("beta for n=%d should clamp to 0.5, got %v", n, b)
		}
	}
	want := 1 / math.Log(math.Log(100000))
	if b := gemBeta(100000); math.Abs(b-want) > 1e-12 {
		t.Fatalf("beta = %v, want %v", b, want)
	}
}

func TestNoiseInterval(t *testing.T) {
	g := generate.Matching(20)
	res, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: generate.NewRand(11)})
	if err != nil {
		t.Fatal(err)
	}
	w50, err := res.NoiseInterval(0.5)
	if err != nil {
		t.Fatal(err)
	}
	w05, err := res.NoiseInterval(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if w50 <= 0 || w05 <= w50 {
		t.Fatalf("interval widths: 50%%=%v 95%%=%v", w50, w05)
	}
	// Lemma 2.3: width at confidence 1-beta is scale*ln(1/beta).
	if math.Abs(w05-res.NoiseScale*math.Log(20)) > 1e-9 {
		t.Fatalf("w05 = %v, want %v", w05, res.NoiseScale*math.Log(20))
	}
	if _, err := res.NoiseInterval(0); err == nil {
		t.Error("beta=0 should fail")
	}
	if _, err := res.NoiseInterval(1); err == nil {
		t.Error("beta=1 should fail")
	}
	if _, err := (Result{}).NoiseInterval(0.5); err == nil {
		t.Error("zero result should fail")
	}
}

// TestNoiseIntervalCoverage checks empirically that the injected noise
// falls inside the interval at the advertised rate: about 1−β for the
// one-term spanning-forest and known-n releases, and at least 1−β for a
// component count, whose private vertex count adds a second term.
func TestNoiseIntervalCoverage(t *testing.T) {
	ctx := context.Background()
	g := generate.Matching(50)
	n := float64(g.N())
	ge, _, err := (*PlanCache)(nil).GridEval(ctx, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		release func(context.Context, *GridEval, Options) (Result, error)
		exact   func(Result) float64 // the release without noise
		oneTerm bool
	}{
		{"sf", EstimateSpanningForestSizeFromGrid, func(r Result) float64 { return r.FDelta }, true},
		{"cc-known-n", EstimateComponentCountKnownNFromGrid, func(r Result) float64 { return n - r.FDelta }, true},
		{"cc", EstimateComponentCountFromGrid, func(r Result) float64 { return n - r.FDelta }, false},
	}
	const trials = 2000
	beta := 0.2
	for _, tc := range cases {
		opts := Options{Epsilon: 1, Rand: generate.NewRand(12)}
		covered := 0
		for i := 0; i < trials; i++ {
			res, err := tc.release(ctx, ge, opts)
			if err != nil {
				t.Fatal(err)
			}
			w, err := res.NoiseInterval(beta)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Value-tc.exact(res)) <= w {
				covered++
			}
		}
		rate := float64(covered) / trials
		if tc.oneTerm && math.Abs(rate-(1-beta)) > 0.04 || !tc.oneTerm && rate < 1-beta-0.02 {
			t.Errorf("%s: coverage %v, want ≈ %v (at least, for two terms)", tc.name, rate, 1-beta)
		}
	}
}

func TestDiscreteRelease(t *testing.T) {
	g := generate.Matching(30)
	res, err := EstimateSpanningForestSize(g, Options{
		Epsilon: 1, Rand: generate.NewRand(13), DiscreteRelease: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != math.Round(res.Value) {
		t.Fatalf("discrete release produced non-integer %v", res.Value)
	}
	// The discrete scale is (Δ̂+1)/(ε/2), strictly above the float scale.
	if res.NoiseScale <= res.Delta/(0.5) {
		t.Fatalf("discrete noise scale %v should exceed %v", res.NoiseScale, res.Delta/0.5)
	}
}

func TestDiscreteReleaseConcentrates(t *testing.T) {
	ctx := context.Background()
	ge, _, err := (*PlanCache)(nil).GridEval(ctx, generate.Matching(50), Options{}) // f_sf = 50, Δ* = 1
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Epsilon: 2, Rand: generate.NewRand(14), DiscreteRelease: true}
	const trials = 400
	sum := 0.0
	for i := 0; i < trials; i++ {
		res, err := EstimateSpanningForestSizeFromGrid(ctx, ge, opts)
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Value
	}
	if mean := sum / trials; math.Abs(mean-50) > 3 {
		t.Fatalf("discrete release mean %v, want ≈ 50", mean)
	}
}
