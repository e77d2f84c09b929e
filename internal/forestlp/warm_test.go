package forestlp

import (
	"context"
	"math"
	"math/big"
	"reflect"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// warmTestGrid returns the Algorithm-1 power-of-two grid for g.
func warmTestGrid(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	grid, err := mechanism.PowerOfTwoGrid(float64(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// pointValues evaluates every grid point with its own Plan.Value call,
// which carries no cross-Δ state: no cut pool, no piece memos, no standing
// solvers. It is the reference the warm-start tests compare sweeps with.
func pointValues(t *testing.T, p *Plan, grid []float64, opts Options) []float64 {
	t.Helper()
	vals := make([]float64, len(grid))
	for i, d := range grid {
		v, _, err := p.Value(context.Background(), d, opts)
		if err != nil {
			t.Fatalf("Value(Δ=%v): %v", d, err)
		}
		vals[i] = v
	}
	return vals
}

// TestSepWorkersDeterminism is the parallel-separation property test: on
// random graphs, every Workers setting — which also sizes the separation
// oracle's pool — must produce bit-identical grid values, identical
// counting statistics (including max-flow calls — the wave schedule never
// depends on the worker count), and identical cut pools. Run under -race
// this also exercises the oracle worker pool for data races.
func TestSepWorkersDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := generate.NewRand(seed * 131)
		graphs := []*graph.Graph{
			generate.PlantedComponents([]int{50}, 4.0/50, rng),
			generate.WithHubs(generate.ErdosRenyi(48, 2.5/48, rng), 2, 0.25, rng),
			generate.PlantedComponents([]int{20, 14, 16}, 0.25, rng),
		}
		for gi, g := range graphs {
			p := NewPlan(g)
			grid := warmTestGrid(t, g)

			type outcome struct {
				values []float64
				stats  Stats
				pools  [][]warmCut
			}
			run := func(workers int) outcome {
				warm := newGridWarm(p)
				var stats Stats
				values := make([]float64, len(grid))
				for i, d := range grid {
					v, _, st, err := p.point(context.Background(), d, Options{Workers: workers}, warm)
					if err != nil {
						t.Fatalf("seed %d graph %d workers %d: %v", seed, gi, workers, err)
					}
					stats.MergeGridRound(st)
					values[i] = v
				}
				stats.Workers = 0 // the resolved pool size follows the setting
				pools := make([][]warmCut, len(warm.shards))
				for i, sw := range warm.shards {
					pools[i] = sw.pool
				}
				return outcome{values, stats, pools}
			}

			base := run(1)
			// 16 is the oracle's wave width and 32 lies above it: both
			// resolve to as many workers as a wave holds.
			for _, workers := range []int{4, 8, 16, 32} {
				got := run(workers)
				for i := range base.values {
					if math.Float64bits(got.values[i]) != math.Float64bits(base.values[i]) {
						t.Errorf("seed %d graph %d: Workers=%d grid[%d] %v != serial %v",
							seed, gi, workers, i, got.values[i], base.values[i])
					}
				}
				if got.stats != base.stats {
					t.Errorf("seed %d graph %d: Workers=%d stats %+v != serial %+v",
						seed, gi, workers, got.stats, base.stats)
				}
				if !reflect.DeepEqual(got.pools, base.pools) {
					t.Errorf("seed %d graph %d: Workers=%d cut pools differ from serial", seed, gi, workers)
				}
			}
		}
	}
}

// TestWarmStartGridEquivalence certifies the cross-Δ warm start against
// ground truth: on small random graphs, the warm-started grid sweep and
// per-point evaluation (no cross-Δ state) must both match the exact
// big.Rat simplex on the fully enumerated LP at every grid point. The fast
// path and peeling are disabled so the cutting-plane machinery (and its
// warm starts) actually runs at every Δ.
func TestWarmStartGridEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := generate.NewRand(seed * 977)
		n := 6 + int(seed)%3
		g := generate.ErdosRenyi(n, 0.45, rng)
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		opts := Options{Workers: 1, noFastPath: true, noPeel: true}

		warmVals, _, err := p.GridValues(context.Background(), grid, opts)
		if err != nil {
			t.Fatalf("seed %d: warm sweep: %v", seed, err)
		}
		pointVals := pointValues(t, p, grid, opts)
		for i, d := range grid {
			exact, err := ValueBruteForceRat(g, new(big.Rat).SetFloat64(d))
			if err != nil {
				t.Fatalf("seed %d delta %v: %v", seed, d, err)
			}
			want, _ := exact.Float64()
			if math.Abs(warmVals[i]-want) > tol {
				t.Errorf("seed %d delta %v: warm %v != exact %v", seed, d, warmVals[i], want)
			}
			if math.Abs(pointVals[i]-want) > tol {
				t.Errorf("seed %d delta %v: per-point %v != exact %v", seed, d, pointVals[i], want)
			}
		}
	}
}

// TestWarmStartValueIdentity checks the stronger empirical contract the
// benchmark suite relies on: on LP-heavy families that converge (no
// stalls), the warm-started sweep and per-point evaluation (no cross-Δ
// state) release bit-identical grid values — the warm machinery changes
// only the work counters.
func TestWarmStartValueIdentity(t *testing.T) {
	rng := generate.NewRand(77)
	graphs := []*graph.Graph{
		generate.PlantedComponents([]int{60}, 4.5/60, rng),
		generate.PlantedComponents([]int{24, 30}, 0.22, rng),
		generate.WithHubs(generate.PlantedComponents([]int{30, 30}, 4.0/30, rng), 2, 0.3, rng),
	}
	for gi, g := range graphs {
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		warmVals, warmStats, err := p.GridValues(context.Background(), grid, Options{Workers: 1})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		pointVals := pointValues(t, p, grid, Options{Workers: 1})
		if warmStats.StalledPieces > 0 {
			t.Fatalf("graph %d stalled; pick a converging instance for this test", gi)
		}
		for i := range grid {
			if math.Float64bits(warmVals[i]) != math.Float64bits(pointVals[i]) {
				t.Errorf("graph %d grid[%d]: warm %v != per-point %v", gi, i, warmVals[i], pointVals[i])
			}
		}
	}
}

// TestWarmPoolTranslation covers the shard-pool mechanics directly: cuts
// added in piece space surface in shard ids, deduplicate, and translate
// back through inject for a matching piece.
func TestWarmPoolTranslation(t *testing.T) {
	sw := newShardWarm(10)
	orig := []int{2, 4, 5, 7, 9} // piece-local 0..4 live at these shard ids
	sw.addCut(orig, []int32{0, 2, 3})
	sw.addCut(orig, []int32{0, 2, 3}) // duplicate must be ignored
	sw.addCut(orig, []int32{1, 4})
	if len(sw.pool) != 2 {
		t.Fatalf("pool size %d, want 2", len(sw.pool))
	}
	if got, want := sw.pool[0].ids, []int32{2, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled ids %v, want %v", got, want)
	}

	// Inject into an identical piece: both cuts are contained and must be
	// parked with the separator.
	g := generate.Complete(5)
	sp := newSeparator(g, g.Edges(), 1)
	active, basis, seeded := sw.inject(sp, orig)
	if len(active) != 0 || basis != nil {
		t.Fatalf("no memo stored, yet inject returned active=%d basis=%v", len(active), basis)
	}
	if seeded != 2 || len(sp.parked) != 2 {
		t.Fatalf("seeded=%d parked=%d, want 2 and 2", seeded, len(sp.parked))
	}
	if got, want := sp.parked[0].ids, []int32{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("translated ids %v, want %v", got, want)
	}

	// A piece missing shard vertex 5 cannot host the first cut.
	sp2 := newSeparator(g, g.Edges(), 1)
	_, _, seeded = sw.inject(sp2, []int{2, 4, 7, 9})
	if seeded != 1 {
		t.Fatalf("partial piece seeded %d cuts, want 1", seeded)
	}
}

// TestWarmMemoNonIdentityPiece locks the memo key space: a basis stored
// for a piece whose shard ids are NOT the identity mapping (the normal
// case after peeling) must be found and replayed by the next grid point's
// inject, with the active rows reconstructed in order.
func TestWarmMemoNonIdentityPiece(t *testing.T) {
	sw := newShardWarm(10)
	orig := []int{2, 4, 5, 7, 9}
	g := generate.Complete(5)

	sp := newSeparator(g, g.Edges(), 1)
	ct, ok := sp.record([]int32{0, 2, 3}, 0.5, nil)
	if !ok {
		t.Fatal("record failed")
	}
	sw.addCut(orig, ct.ids)
	sw.store(orig, []*cut{ct}, []int{1, 2, 3})
	if len(sw.memos) != 1 {
		t.Fatalf("memo not stored for non-identity piece (memos=%d)", len(sw.memos))
	}

	sp2 := newSeparator(g, g.Edges(), 1)
	active, basis, seeded := sw.inject(sp2, orig)
	if len(active) != 1 || basis == nil || seeded != 1 {
		t.Fatalf("memo replay: active=%d basis=%v seeded=%d, want 1 row with a basis", len(active), basis, seeded)
	}
	if !reflect.DeepEqual(active[0].ids, []int32{0, 2, 3}) {
		t.Fatalf("replayed cut ids %v, want [0 2 3]", active[0].ids)
	}
}

// TestSepWaveWidthClampedToPiece: a wave never holds more than a piece's
// vertices, so the separator clamps the wave width, and the separation
// workers it can use, to the vertex count instead of allocating result
// slots that no wave fills.
func TestSepWaveWidthClampedToPiece(t *testing.T) {
	k := generate.Complete(7)
	if sp := newSeparator(k, k.Edges(), 1<<20); sp.wave != k.N() || sp.workers != k.N() {
		t.Fatalf("wave %d, workers %d on a %d-vertex piece, want both clamped to %d",
			sp.wave, sp.workers, k.N(), k.N())
	}
}
