package experiments

import (
	"context"
	"time"

	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
)

// E16ParallelEngine exercises the sharded evaluation engine on a
// multi-component LP-heavy workload: a disjoint union of dense-ish ER
// clusters evaluated at Δ = 2, which defeats the spanning-forest fast path
// and forces one cutting-plane LP per cluster. The table sweeps the worker
// count, checking that the value and every counting statistic are
// bit-for-bit identical to the serial run (the engine's determinism
// contract) while wall time drops with available parallelism.
func E16ParallelEngine(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "component-sharded parallel evaluation engine (Δ=2, planted ER clusters)",
		Claim:   "shard merge order, not scheduling, determines the result: identical values for every worker count",
		Columns: []string{"workers", "f_2(G)", "identical", "LP-solves", "ms", "speedup"},
	}
	clusters, size := 12, 36
	if cfg.Quick {
		clusters, size = 6, 24
	}
	sizes := make([]int, clusters)
	for i := range sizes {
		sizes[i] = size
	}
	rng := generate.NewRand(cfg.Seed*131 + 7)
	g := generate.PlantedComponents(sizes, 3.2/float64(size), rng)

	plan := forestlp.NewPlan(g)
	// Warm-up: pay the plan's lazily cached triage data (low-degree
	// spanning forests) outside the timed rows, so the serial baseline is
	// not charged for work the later rows reuse.
	if _, _, err := plan.Value(context.Background(), 2, forestlp.Options{Workers: 1}); err != nil {
		return nil, err
	}
	var serialValue float64
	var serialStats forestlp.Stats
	var serialMS float64
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		v, stats, err := plan.Value(context.Background(), 2, forestlp.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if workers == 1 {
			serialValue, serialStats, serialMS = v, stats, ms
		}
		identical := v == serialValue &&
			stats.LPSolves == serialStats.LPSolves &&
			stats.CutsAdded == serialStats.CutsAdded &&
			stats.SimplexPivots == serialStats.SimplexPivots &&
			stats.FastPathHits == serialStats.FastPathHits
		t.AddRow(workers, v, identical, stats.LPSolves, ms, serialMS/ms)
	}
	t.Notes = append(t.Notes,
		"identical must be true in every row; speedup tracks GOMAXPROCS, so single-core machines report ≈1×")
	return t, nil
}
