package forestlp

// Ablation benchmarks for the f_Δ evaluator's exact reductions (the
// spanning-forest fast path and leaf peeling; README, "The evaluation
// engine"): what each buys on a workload where the LP would otherwise run.
// Compare:
//
//	go test -run xxx -bench BenchmarkAblation -benchmem ./internal/forestlp
//
// The "Full" variant is the production configuration; each other variant
// disables one layer through a test hook. All variants compute identical
// values (asserted by TestQuickPeelInvariance and the brute-force
// cross-checks).

import (
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// ablationWorkload: sparse ER giant components (tree fringe + 2-core) at a
// Δ just below the typical heuristic forest degree, so every layer is
// exercised.
func ablationWorkload() []*graph.Graph {
	var gs []*graph.Graph
	for seed := uint64(0); seed < 4; seed++ {
		gs = append(gs, generate.ErdosRenyi(120, 2.0/120, generate.NewRand(900+seed)))
	}
	return gs
}

func runAblation(b *testing.B, opts Options) {
	b.Helper()
	gs := ablationWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			if _, _, err := Value(g, 2, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationFull is the production configuration.
func BenchmarkAblationFull(b *testing.B) {
	runAblation(b, Options{})
}

// BenchmarkAblationNoFastPath disables the spanning-forest certificates
// (BFS/greedy/repair forests and the capped-forest certificate).
func BenchmarkAblationNoFastPath(b *testing.B) {
	runAblation(b, Options{noFastPath: true})
}

// BenchmarkAblationNoPeel disables the leaf-elimination preprocessing.
func BenchmarkAblationNoPeel(b *testing.B) {
	runAblation(b, Options{noPeel: true})
}

// BenchmarkAblationBare disables both exact reductions: raw cutting planes
// (with cut management) only.
func BenchmarkAblationBare(b *testing.B) {
	runAblation(b, Options{noFastPath: true, noPeel: true})
}
