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

// TestSepWorkersDeterminism is the parallel-separation property test: on
// random graphs, every SepWorkers setting must produce bit-identical grid
// values, identical counting statistics (including max-flow calls — the
// wave schedule never depends on the worker count), and identical cut
// pools. Run under -race this also exercises the oracle worker pool for
// data races.
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
			run := func(sepWorkers int) outcome {
				warm := newGridWarm(p)
				var stats Stats
				values := make([]float64, len(grid))
				for i, d := range grid {
					v, _, st, err := p.point(context.Background(), d, Options{Workers: 1, SepWorkers: sepWorkers}, warm)
					if err != nil {
						t.Fatalf("seed %d graph %d sepWorkers %d: %v", seed, gi, sepWorkers, err)
					}
					stats.MergeGridRound(st)
					values[i] = v
				}
				pools := make([][]warmCut, len(warm.shards))
				for i, sw := range warm.shards {
					pools[i] = sw.pool
				}
				return outcome{values, stats, pools}
			}

			base := run(1)
			for _, workers := range []int{4, 8} {
				got := run(workers)
				for i := range base.values {
					if math.Float64bits(got.values[i]) != math.Float64bits(base.values[i]) {
						t.Errorf("seed %d graph %d: SepWorkers=%d grid[%d] %v != serial %v",
							seed, gi, workers, i, got.values[i], base.values[i])
					}
				}
				if !reflect.DeepEqual(got.stats, base.stats) {
					t.Errorf("seed %d graph %d: SepWorkers=%d stats %+v != serial %+v",
						seed, gi, workers, got.stats, base.stats)
				}
				if !reflect.DeepEqual(got.pools, base.pools) {
					t.Errorf("seed %d graph %d: SepWorkers=%d cut pools differ from serial", seed, gi, workers)
				}
			}
		}
	}
}

// TestWarmStartGridEquivalence certifies the cross-Δ warm start against
// ground truth: on small random graphs, the warm-started grid sweep and
// the cold sweep must both match the exact big.Rat simplex on the fully
// enumerated LP at every grid point. The fast path and peeling are
// disabled so the cutting-plane machinery (and its warm starts) actually
// runs at every Δ.
func TestWarmStartGridEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := generate.NewRand(seed * 977)
		n := 6 + int(seed)%3
		g := generate.ErdosRenyi(n, 0.45, rng)
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		opts := Options{Workers: 1, DisableFastPath: true, DisablePeel: true}

		warmVals, _, err := p.GridValues(context.Background(), grid, opts)
		if err != nil {
			t.Fatalf("seed %d: warm sweep: %v", seed, err)
		}
		coldOpts := opts
		coldOpts.DisableWarmStart = true
		coldVals, _, err := p.GridValues(context.Background(), grid, coldOpts)
		if err != nil {
			t.Fatalf("seed %d: cold sweep: %v", seed, err)
		}
		for i, d := range grid {
			exact, err := ValueBruteForceRat(g, new(big.Rat).SetFloat64(d))
			if err != nil {
				t.Fatalf("seed %d delta %v: %v", seed, d, err)
			}
			want, _ := exact.Float64()
			if math.Abs(warmVals[i]-want) > tol {
				t.Errorf("seed %d delta %v: warm %v != exact %v", seed, d, warmVals[i], want)
			}
			if math.Abs(coldVals[i]-want) > tol {
				t.Errorf("seed %d delta %v: cold %v != exact %v", seed, d, coldVals[i], want)
			}
		}
	}
}

// TestWarmStartValueIdentity checks the stronger empirical contract the
// benchmark suite relies on: on LP-heavy families that converge (no
// stalls), warm and cold sweeps release bit-identical grid values — the
// warm machinery changes only the work counters.
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
		coldVals, _, err := p.GridValues(context.Background(), grid, Options{Workers: 1, DisableWarmStart: true})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if warmStats.StalledPieces > 0 {
			t.Fatalf("graph %d stalled; pick a converging instance for this test", gi)
		}
		for i := range grid {
			if math.Float64bits(warmVals[i]) != math.Float64bits(coldVals[i]) {
				t.Errorf("graph %d grid[%d]: warm %v != cold %v", gi, i, warmVals[i], coldVals[i])
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
	sp := newSeparator(g, g.Edges(), 1e-7, 1, sepWaveDefault)
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
	sp2 := newSeparator(g, g.Edges(), 1e-7, 1, sepWaveDefault)
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

	sp := newSeparator(g, g.Edges(), 1e-7, 1, sepWaveDefault)
	ct, ok := sp.record([]int32{0, 2, 3}, 0.5, nil)
	if !ok {
		t.Fatal("record failed")
	}
	sw.addCut(orig, ct.ids)
	sw.store(orig, []*cut{ct}, []int{1, 2, 3})
	if len(sw.memos) != 1 {
		t.Fatalf("memo not stored for non-identity piece (memos=%d)", len(sw.memos))
	}

	sp2 := newSeparator(g, g.Edges(), 1e-7, 1, sepWaveDefault)
	active, basis, seeded := sw.inject(sp2, orig)
	if len(active) != 1 || basis == nil || seeded != 1 {
		t.Fatalf("memo replay: active=%d basis=%v seeded=%d, want 1 row with a basis", len(active), basis, seeded)
	}
	if !reflect.DeepEqual(active[0].ids, []int32{0, 2, 3}) {
		t.Fatalf("replayed cut ids %v, want [0 2 3]", active[0].ids)
	}
}

// TestSepWaveWidthDeterminism lifts the historical wave-width cap of 16:
// at a configured width above it, every SepWorkers setting (including ones
// only useful beyond the old cap) must still produce bit-identical grid
// values, identical counting statistics, and identical cut pools. A width
// change itself may move the schedule — so the fixed-width determinism is
// the contract — but on converging instances the values must also agree
// with the default width.
func TestSepWaveWidthDeterminism(t *testing.T) {
	const width = 32
	for seed := uint64(1); seed <= 3; seed++ {
		rng := generate.NewRand(seed * 977)
		graphs := []*graph.Graph{
			generate.PlantedComponents([]int{50}, 4.0/50, rng),
			generate.WithHubs(generate.ErdosRenyi(48, 2.5/48, rng), 2, 0.25, rng),
		}
		for gi, g := range graphs {
			p := NewPlan(g)
			grid := warmTestGrid(t, g)

			type outcome struct {
				values []float64
				stats  Stats
				pools  [][]warmCut
			}
			run := func(sepWorkers, waveWidth int) outcome {
				warm := newGridWarm(p)
				var stats Stats
				values := make([]float64, len(grid))
				for i, d := range grid {
					v, _, st, err := p.point(context.Background(), d,
						Options{Workers: 1, SepWorkers: sepWorkers, SepWaveWidth: waveWidth}, warm)
					if err != nil {
						t.Fatalf("seed %d graph %d sepWorkers %d wave %d: %v", seed, gi, sepWorkers, waveWidth, err)
					}
					stats.MergeGridRound(st)
					values[i] = v
				}
				pools := make([][]warmCut, len(warm.shards))
				for i, sw := range warm.shards {
					pools[i] = sw.pool
				}
				return outcome{values, stats, pools}
			}

			base := run(1, width)
			for _, workers := range []int{8, 24, width} {
				got := run(workers, width)
				for i := range base.values {
					if math.Float64bits(got.values[i]) != math.Float64bits(base.values[i]) {
						t.Errorf("seed %d graph %d: wave %d SepWorkers=%d grid[%d] %v != serial %v",
							seed, gi, width, workers, i, got.values[i], base.values[i])
					}
				}
				if !reflect.DeepEqual(got.stats, base.stats) {
					t.Errorf("seed %d graph %d: wave %d SepWorkers=%d stats %+v != serial %+v",
						seed, gi, width, workers, got.stats, base.stats)
				}
				if !reflect.DeepEqual(got.pools, base.pools) {
					t.Errorf("seed %d graph %d: wave %d SepWorkers=%d cut pools differ from serial",
						seed, gi, width, workers)
				}
			}

			// On converging instances a wider wave reaches the same optimum.
			if base.stats.StalledPieces == 0 {
				def := run(1, 0)
				if def.stats.StalledPieces == 0 {
					for i := range base.values {
						if math.Float64bits(def.values[i]) != math.Float64bits(base.values[i]) {
							t.Errorf("seed %d graph %d: grid[%d] differs across widths on a converging instance: %v (wave %d) vs %v (default)",
								seed, gi, i, base.values[i], width, def.values[i])
						}
					}
				}
			}
		}
	}
}

// TestSepWaveWidthValidation: negative widths are rejected before any
// evaluation; width 1 (fully sequential dispatch) still works.
func TestSepWaveWidthValidation(t *testing.T) {
	g := generate.PlantedComponents([]int{12}, 0.4, generate.NewRand(7))
	if _, _, err := Value(g, 1, Options{SepWaveWidth: -1}); err == nil {
		t.Fatal("SepWaveWidth=-1 accepted, want error")
	}
	if _, _, err := Value(g, 1, Options{SepWaveWidth: 1}); err != nil {
		t.Fatalf("SepWaveWidth=1: %v", err)
	}
}
