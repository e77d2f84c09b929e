package nodedp

// Ablation benchmarks for Algorithm 1's Δ-grid: what a truncated grid
// saves against the paper's DeltaMax = n. Compare:
//
//	go test -run xxx -bench BenchmarkAblationGEMGrid -benchmem
//
// The engine's own ablations (fast path, leaf peeling) live in
// internal/forestlp.

import (
	"math"
	"testing"

	"nodedp/internal/generate"
)

// BenchmarkAblationGEMGridCoarse measures Algorithm 1 with a truncated Δ
// grid (DeltaMax 4 instead of n): cheaper evaluation, weaker adaptivity.
func BenchmarkAblationGEMGridCoarse(b *testing.B) {
	g := generate.Geometric(300, 1.2/math.Sqrt(300), generate.NewRand(905))
	rng := generate.NewRand(906)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: rng, DeltaMax: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGEMGridFull is the paper's DeltaMax = n grid on the
// same input, for comparison with the coarse variant.
func BenchmarkAblationGEMGridFull(b *testing.B) {
	g := generate.Geometric(300, 1.2/math.Sqrt(300), generate.NewRand(905))
	rng := generate.NewRand(907)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSpanningForestSize(g, Options{Epsilon: 1, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}
