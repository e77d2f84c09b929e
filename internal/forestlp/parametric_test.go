package forestlp

import (
	"context"
	"math"
	"math/big"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/graph"
)

// lowerIncrGate drops the parametric engine's size gate so the small
// conformance graphs actually exercise it, restoring the production value
// when the test ends. Package tests run sequentially, so the package-level
// variable swap is safe.
func lowerIncrGate(t *testing.T) {
	t.Helper()
	old := incrMinRows
	incrMinRows = 1
	t.Cleanup(func() { incrMinRows = old })
}

// rebuildGridValues sweeps p with the parametric engine's size gate
// raised above every piece, so each piece runs the rebuild loop alone —
// the reference the parametric tests compare the standing solvers with.
// The gate in force before the call is restored when it returns.
func rebuildGridValues(t *testing.T, p *Plan, grid []float64, opts Options) []float64 {
	t.Helper()
	old := incrMinRows
	incrMinRows = math.MaxInt
	defer func() { incrMinRows = old }()
	vals, st, err := p.GridValues(context.Background(), grid, opts)
	if err != nil {
		t.Fatalf("rebuild sweep: %v", err)
	}
	if st.ParametricSlides != 0 {
		t.Fatalf("rebuild sweep slid %d standing solvers", st.ParametricSlides)
	}
	return vals
}

// TestParametricGridEquivalence is the exact-oracle certification test of
// the parametric engine: on small random graphs, every grid value produced
// by the basis-sliding sweep must match the exact big.Rat simplex on the
// fully enumerated LP, and the rebuild engine must agree bit for bit. The
// fast path and peeling are disabled so the standing solver, its Δ slides,
// and its row appends carry every piece.
func TestParametricGridEquivalence(t *testing.T) {
	lowerIncrGate(t)
	for seed := uint64(1); seed <= 5; seed++ {
		rng := generate.NewRand(seed * 977)
		n := 6 + int(seed)%3
		g := generate.ErdosRenyi(n, 0.45, rng)
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		opts := Options{Workers: 1, noFastPath: true, noPeel: true}

		incrVals, incrStats, err := p.GridValues(context.Background(), grid, opts)
		if err != nil {
			t.Fatalf("seed %d: parametric sweep: %v", seed, err)
		}
		if incrStats.ParametricSlides == 0 {
			t.Fatalf("seed %d: parametric engine never slid — the gate did not engage", seed)
		}
		rebuildVals := rebuildGridValues(t, p, grid, opts)
		for i, d := range grid {
			exact, err := ValueBruteForceRat(g, new(big.Rat).SetFloat64(d))
			if err != nil {
				t.Fatalf("seed %d delta %v: %v", seed, d, err)
			}
			want, _ := exact.Float64()
			if math.Abs(incrVals[i]-want) > tol {
				t.Errorf("seed %d delta %v: parametric %v != exact %v", seed, d, incrVals[i], want)
			}
			if math.Float64bits(incrVals[i]) != math.Float64bits(rebuildVals[i]) {
				t.Errorf("seed %d delta %v: parametric %v != rebuild %v (bit-identity)",
					seed, d, incrVals[i], rebuildVals[i])
			}
		}
	}
}

// TestParametricValueIdentity checks the release contract on LP-heavy
// converging families: the parametric and rebuild engines at Workers
// {1, 8} all produce bit-identical grid values — the parametric engine
// moves pivots, never answers.
func TestParametricValueIdentity(t *testing.T) {
	lowerIncrGate(t)
	rng := generate.NewRand(77)
	graphs := []*graph.Graph{
		generate.PlantedComponents([]int{60}, 4.5/60, rng),
		generate.PlantedComponents([]int{24, 30}, 0.22, rng),
		generate.WithHubs(generate.PlantedComponents([]int{30, 30}, 4.0/30, rng), 2, 0.3, rng),
	}
	for gi, g := range graphs {
		p := NewPlan(g)
		grid := warmTestGrid(t, g)
		base, baseStats, err := p.GridValues(context.Background(), grid, Options{Workers: 1})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if baseStats.StalledPieces > 0 {
			t.Fatalf("graph %d stalled; pick a converging instance for this test", gi)
		}
		par8, _, err := p.GridValues(context.Background(), grid, Options{Workers: 8})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		variants := []struct {
			name string
			vals []float64
		}{
			{"rebuild", rebuildGridValues(t, p, grid, Options{Workers: 1})},
			{"parametric Workers=8", par8},
			{"rebuild Workers=8", rebuildGridValues(t, p, grid, Options{Workers: 8})},
		}
		for _, v := range variants {
			for i := range grid {
				if math.Float64bits(v.vals[i]) != math.Float64bits(base[i]) {
					t.Errorf("graph %d %s grid[%d]: %v != base %v", gi, v.name, i, v.vals[i], base[i])
				}
			}
		}
	}
}

// TestParametricObservability pins the solver-depth counters: a sweep that
// engages the parametric engine reports slides, and an engaged sweep on a
// converging family records cheap solves (most grid points settle within
// a handful of pivots) without any fallback.
func TestParametricObservability(t *testing.T) {
	lowerIncrGate(t)
	rng := generate.NewRand(79)
	g := generate.PlantedComponents([]int{60}, 4.5/60, rng)
	p := NewPlan(g)
	grid := warmTestGrid(t, g)

	// Fast path and peel are disabled so the same piece recurs at every
	// grid point — the precondition for a slide (matching piece signature).
	opts := Options{Workers: 1, noFastPath: true, noPeel: true}
	var stats Stats
	warm := newGridWarm(p)
	for _, d := range grid {
		_, _, st, err := p.point(context.Background(), d, opts, warm)
		if err != nil {
			t.Fatal(err)
		}
		stats.MergeGridRound(st)
	}
	if stats.ParametricSlides == 0 {
		t.Fatal("no parametric slides recorded across a full grid sweep")
	}
	if stats.ParametricCheapSolves == 0 {
		t.Fatal("no cheap solves recorded — slides are not resuming near the optimum")
	}
	if stats.IncrementalFallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %d", stats.IncrementalFallbacks)
	}
	if stats.ParametricCheapSolves > stats.ParametricSlides {
		t.Fatalf("cheap solves (%d) exceed slides (%d)", stats.ParametricCheapSolves, stats.ParametricSlides)
	}
}

// TestParametricSolverCap drives more simultaneous pieces than
// incrSolverCap through one shard's warm state and checks the retention
// bookkeeping stays consistent: at most incrSolverCap live solvers, every
// listed signature actually holding one.
func TestParametricSolverCap(t *testing.T) {
	lowerIncrGate(t)
	rng := generate.NewRand(80)
	// Hub-heavy single component: peel splits it into several pieces per
	// grid point, all sharing one shardWarm.
	g := generate.WithHubs(generate.PlantedComponents([]int{40}, 5.0/40, rng), 3, 0.3, rng)
	p := NewPlan(g)
	grid := warmTestGrid(t, g)
	warm := newGridWarm(p)
	for _, d := range grid {
		if _, _, _, err := p.point(context.Background(), d, Options{Workers: 1}, warm); err != nil {
			t.Fatal(err)
		}
		for _, sw := range warm.shards {
			if len(sw.incrSigs) > incrSolverCap {
				t.Fatalf("%d live solvers retained, cap %d", len(sw.incrSigs), incrSolverCap)
			}
			live := 0
			for _, m := range sw.memos {
				if m.incr != nil {
					live++
				}
			}
			if live != len(sw.incrSigs) {
				t.Fatalf("solver bookkeeping skewed: %d live solvers, %d listed signatures", live, len(sw.incrSigs))
			}
		}
	}
}
