package forestlp

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// point evaluates one Δ through the sweep scheduler, threading warm (nil
// for none) between calls: the point-by-point reference of the warm-start
// and determinism tests. It returns f_Δ of the planned shards, the
// per-shard results in shard order and their merged Stats.
func (p *Plan) point(ctx context.Context, delta float64, opts Options, warm *gridWarm) (float64, []shardResult, Stats, error) {
	points, err := p.evaluate(ctx, []float64{delta}, opts, warm, false)
	if err != nil {
		return 0, nil, Stats{}, err
	}
	return points[0].total, points[0].shards, points[0].stats, nil
}

// TestWorkerCountDeterminism is the determinism property test: on random
// graphs from internal/generate, every worker count must produce the same
// f_Δ bit for bit, with identical counting statistics.
func TestWorkerCountDeterminism(t *testing.T) {
	deltas := []float64{1, 2, 3, 7.5}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := generate.NewRand(seed)
		graphs := []*graph.Graph{
			generate.ErdosRenyi(60, 2.5/60, rng),
			generate.PlantedComponents([]int{15, 9, 21, 12}, 0.25, rng),
			generate.WithHubs(generate.ErdosRenyi(50, 1.5/50, rng), 2, 0.3, rng),
		}
		for gi, g := range graphs {
			plan := NewPlan(g)
			for _, delta := range deltas {
				base, baseStats, err := plan.Value(context.Background(), delta, Options{Workers: 1})
				if err != nil {
					t.Fatalf("seed %d graph %d delta %v: %v", seed, gi, delta, err)
				}
				for _, workers := range []int{2, 3, 8} {
					v, stats, err := plan.Value(context.Background(), delta, Options{Workers: workers})
					if err != nil {
						t.Fatalf("seed %d graph %d delta %v workers %d: %v", seed, gi, delta, workers, err)
					}
					if math.Float64bits(v) != math.Float64bits(base) {
						t.Errorf("seed %d graph %d delta %v: workers %d value %v != serial %v",
							seed, gi, delta, workers, v, base)
					}
					if stats.LPSolves != baseStats.LPSolves ||
						stats.CutsAdded != baseStats.CutsAdded ||
						stats.MaxFlowCalls != baseStats.MaxFlowCalls ||
						stats.SimplexPivots != baseStats.SimplexPivots ||
						stats.FastPathHits != baseStats.FastPathHits ||
						stats.Components != baseStats.Components ||
						stats.StalledPieces != baseStats.StalledPieces {
						t.Errorf("seed %d graph %d delta %v: workers %d stats %+v != serial %+v",
							seed, gi, delta, workers, stats, baseStats)
					}
				}
			}
		}
	}

	// Sweep: one job per shard across the whole grid. A spider — one hub
	// tied to many small clusters, which keeps its LP live across the grid
	// on standing solvers — beside planted blocks, so the giant job runs
	// while the small ones fill the other workers.
	lowerIncrGate(t)
	for seed := uint64(1); seed <= 2; seed++ {
		g := spiderWithBlocks(seed)
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		sweep := func(workers int) GridSweep {
			sw, err := p.Sweep(context.Background(), grid, Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d: sweep at workers %d: %v", seed, workers, err)
			}
			return sw
		}
		base := sweep(1)
		if base.Stats.ParametricSlides == 0 {
			t.Fatalf("seed %d: no standing solver slid — the spider tested nothing", seed)
		}
		for _, workers := range []int{2, 3, 8} {
			got := sweep(workers)
			if !bitsEqual(got.totals, base.totals) {
				t.Errorf("seed %d workers %d: totals %v != serial %v", seed, workers, got.totals, base.totals)
			}
			for c := range base.Values {
				if !bitsEqual(got.Values[c], base.Values[c]) || got.Work[c] != base.Work[c] {
					t.Errorf("seed %d workers %d component %d: values %v work %+v != serial %v %+v",
						seed, workers, c, got.Values[c], got.Work[c], base.Values[c], base.Work[c])
				}
			}
			g, b := got.Stats, base.Stats
			g.Workers, b.Workers = 0, 0 // the resolved pool size follows the setting
			if g != b {
				t.Errorf("seed %d workers %d: stats %+v != serial %+v", seed, workers, g, b)
			}
		}
	}
}

// spiderWithBlocks is a hub-articulated spider — 24 small dense ER
// clusters, each tied to one hub by a single bridge, so the hub's degree
// is forced and f_Δ < f_sf until Δ reaches 24 — beside five planted ER
// blocks.
func spiderWithBlocks(seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	clusters := make([]*graph.Graph, 24)
	for i := range clusters {
		clusters[i] = generate.ErdosRenyi(4+rng.IntN(5), 0.65, rng)
	}
	spider := generate.DisjointUnion(clusters...)
	hub := spider.AddVertex()
	off := 0
	for _, c := range clusters {
		if err := spider.AddEdge(hub, off+rng.IntN(c.N())); err != nil {
			panic(err)
		}
		off += c.N()
	}
	return generate.DisjointUnion(spider, generate.PlantedComponents([]int{30, 30, 24, 20, 12}, 3.2/30, rng))
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPlanMatchesValue checks that the plan-reuse path is the one-shot path.
func TestPlanMatchesValue(t *testing.T) {
	rng := generate.NewRand(42)
	g := generate.PlantedComponents([]int{12, 20, 8}, 0.3, rng)
	plan := NewPlan(g)
	for _, delta := range []float64{1, 2, 4, 8, 16} {
		want, wantStats, err := Value(g, delta, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := plan.Value(context.Background(), delta, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("delta %v: plan value %v != one-shot %v", delta, got, want)
		}
		if gotStats.LPSolves != wantStats.LPSolves || gotStats.FastPathHits != wantStats.FastPathHits {
			t.Errorf("delta %v: plan stats %+v != one-shot %+v", delta, gotStats, wantStats)
		}
	}
}

// TestValueCtxCanceled checks the pre-canceled fast exit.
func TestValueCtxCanceled(t *testing.T) {
	g := generate.ErdosRenyi(40, 3.0/40, generate.NewRand(9))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ValueCtx(ctx, g, 2, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestValueCtxCancelMidSolve cancels from inside the cutting-plane loop via
// the onRound hook and checks that the engine aborts with the context error
// for every worker count. The cancel fires on a round that found violated
// cuts, so that shard is guaranteed to re-enter the loop and observe the
// canceled context (a round with no new cuts would return its value before
// the next check).
func TestValueCtxCancelMidSolve(t *testing.T) {
	rng := generate.NewRand(11)
	g := generate.PlantedComponents([]int{25, 25, 25, 25}, 0.3, rng)

	// Force the LP on every shard (triangle-rich clusters at Δ=2 violate
	// subtour constraints immediately). Precondition: the workload must
	// genuinely generate cuts, otherwise the cancel hook below never fires.
	base := Options{Workers: 1, noFastPath: true, noPeel: true}
	if _, stats, err := Value(g, 2, base); err != nil || stats.CutsAdded == 0 {
		t.Fatalf("workload not LP-heavy enough: cuts=%d err=%v", stats.CutsAdded, err)
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		opts := base
		opts.Workers = workers
		opts.onRound = func(round, activeCuts, newCuts int, value float64) {
			if newCuts > 0 {
				once.Do(cancel)
			}
		}
		_, _, err := ValueCtx(ctx, g, 2, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: want context.Canceled, got %v", workers, err)
		}
	}
}

// TestValueCtxDeadline checks deadline expiry against a workload large
// enough that the LP stage cannot finish within a microsecond.
func TestValueCtxDeadline(t *testing.T) {
	rng := generate.NewRand(13)
	g := generate.PlantedComponents([]int{40, 40, 40, 40, 40, 40}, 0.25, rng)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	// The deadline may fire before or during evaluation; both must surface
	// context.DeadlineExceeded rather than a wrong value.
	_, _, err := ValueCtx(ctx, g, 1, Options{Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
