package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// TestWorkerCountDeterminism is the end-to-end determinism property test:
// with a seeded PRNG, Algorithm 1 must produce an identical release and an
// identical GEM selection whether the extension engine runs on 1 worker or
// 8. The parallel engine merges shard values in component order, so the
// q-vector fed to GEM — and therefore the whole random trajectory — is
// bit-for-bit the same.
func TestWorkerCountDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := generate.NewRand(seed * 977)
		graphs := []*graph.Graph{
			generate.ErdosRenyi(70, 2.2/70, rng),
			generate.PlantedComponents([]int{14, 10, 18, 8}, 0.3, rng),
			generate.WithHubs(generate.ErdosRenyi(60, 1.8/60, rng), 2, 0.25, rng),
		}
		for gi, g := range graphs {
			run := func(workers int) Result {
				opts := Options{Epsilon: 1, Rand: generate.NewRand(seed)}
				opts.ForestLP.Workers = workers
				res, err := EstimateComponentCount(g, opts)
				if err != nil {
					t.Fatalf("seed %d graph %d workers %d: %v", seed, gi, workers, err)
				}
				return res
			}
			serial, parallel := run(1), run(8)
			if math.Float64bits(serial.Value) != math.Float64bits(parallel.Value) {
				t.Errorf("seed %d graph %d: estimate %v (1 worker) != %v (8 workers)",
					seed, gi, serial.Value, parallel.Value)
			}
			if serial.Delta != parallel.Delta {
				t.Errorf("seed %d graph %d: GEM selected Δ̂=%v (1 worker) != Δ̂=%v (8 workers)",
					seed, gi, serial.Delta, parallel.Delta)
			}
			if math.Float64bits(serial.FDelta) != math.Float64bits(parallel.FDelta) ||
				math.Float64bits(serial.NHat) != math.Float64bits(parallel.NHat) {
				t.Errorf("seed %d graph %d: diagnostics diverge across worker counts", seed, gi)
			}
			for i := range serial.Evaluations {
				s, p := serial.Evaluations[i], parallel.Evaluations[i]
				if math.Float64bits(s.FDelta) != math.Float64bits(p.FDelta) ||
					math.Float64bits(s.Q) != math.Float64bits(p.Q) {
					t.Errorf("seed %d graph %d: grid point Δ=%v diverges across worker counts",
						seed, gi, s.Delta)
				}
			}
		}
	}
}

// TestSepWorkersWarmStartReleaseDeterminism extends the end-to-end
// determinism contract to intra-component separation, whose oracle pool
// Workers sizes: with a seeded PRNG, the warm-started grid sweep's
// release, GEM selection, every grid diagnostic, and every work counter
// must be bit-identical across Workers settings on graphs of one or two
// components, where the workers mostly serve separation.
func TestSepWorkersWarmStartReleaseDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := generate.NewRand(seed * 389)
		graphs := []*graph.Graph{
			generate.PlantedComponents([]int{50}, 4.0/50, rng), // one giant component
			generate.WithHubs(generate.PlantedComponents([]int{25, 25}, 3.5/25, rng), 2, 0.3, rng),
		}
		for gi, g := range graphs {
			run := func(workers int) Result {
				opts := Options{Epsilon: 1, Rand: generate.NewRand(seed)}
				opts.ForestLP.Workers = workers
				res, err := EstimateComponentCount(g, opts)
				if err != nil {
					t.Fatalf("seed %d graph %d workers %d: %v", seed, gi, workers, err)
				}
				res.Stats.Workers = 0 // the resolved pool size follows the setting
				return res
			}
			base := run(1)
			if base.Stats.StalledPieces > 0 {
				t.Fatalf("seed %d graph %d stalled; the bit-identity contract needs a converging instance", seed, gi)
			}
			for _, workers := range []int{4, 8} {
				got := run(workers)
				if math.Float64bits(got.Value) != math.Float64bits(base.Value) {
					t.Errorf("seed %d graph %d: release %v (Workers=%d) != %v (baseline)",
						seed, gi, got.Value, workers, base.Value)
				}
				if got.Delta != base.Delta {
					t.Errorf("seed %d graph %d: GEM Δ̂=%v (Workers=%d) != Δ̂=%v",
						seed, gi, got.Delta, workers, base.Delta)
				}
				for i := range base.Evaluations {
					b, o := base.Evaluations[i], got.Evaluations[i]
					if math.Float64bits(b.FDelta) != math.Float64bits(o.FDelta) ||
						math.Float64bits(b.Q) != math.Float64bits(o.Q) {
						t.Errorf("seed %d graph %d: grid point Δ=%v diverges (Workers=%d)",
							seed, gi, b.Delta, workers)
					}
				}
				if got.Stats != base.Stats {
					t.Errorf("seed %d graph %d: stats diverge across Workers: %+v != %+v",
						seed, gi, got.Stats, base.Stats)
				}
			}
		}
	}
}

// TestEstimateCtxCanceled checks that every Ctx estimator aborts cleanly on
// a pre-canceled context without touching the noise source.
func TestEstimateCtxCanceled(t *testing.T) {
	g := generate.ErdosRenyi(50, 2.0/50, generate.NewRand(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Epsilon: 1, Rand: generate.NewRand(4)}

	if _, err := EstimateSpanningForestSizeCtx(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateSpanningForestSizeCtx: want context.Canceled, got %v", err)
	}
	if _, err := EstimateComponentCountCtx(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateComponentCountCtx: want context.Canceled, got %v", err)
	}
	if _, err := EstimateComponentCountKnownNCtx(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateComponentCountKnownNCtx: want context.Canceled, got %v", err)
	}
	if _, _, err := (*PlanCache)(nil).GridEval(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("nil PlanCache.GridEval: want context.Canceled, got %v", err)
	}
}

// TestEstimateReportsResolvedWorkers checks that a release's Stats carry
// the worker-pool size the engine resolved for its grid sweep.
func TestEstimateReportsResolvedWorkers(t *testing.T) {
	g := generate.PlantedComponents([]int{12, 9, 15}, 0.35, generate.NewRand(5))
	opts := Options{Epsilon: 1, Rand: generate.NewRand(6)}
	opts.ForestLP.Workers = 2
	res, err := EstimateComponentCount(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 2 {
		t.Errorf("stats.Workers = %d, want 2", res.Stats.Workers)
	}
}
