package forestlp

// Failpoint conformance for the cutting-plane engine: injected numerical
// distress must route through the certified rebuild fallback without
// changing a single bit of the grid values, injected arena exhaustion must
// propagate as a typed error, and a dead context must abort the sweep.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"nodedp/internal/fault"
	"nodedp/internal/generate"
)

// TestInjectedDistressFallsBackBitIdentical arms the standing-solver
// distress failpoint with a seeded coin and requires the sweep to finish
// with the exact values of a clean run — the fault changes the route
// (rebuild instead of slide), never the result. The clean run itself
// must not fall back.
func TestInjectedDistressFallsBackBitIdentical(t *testing.T) {
	defer fault.Reset()
	lowerIncrGate(t)
	g := generate.PlantedComponents([]int{60}, 4.5/60, generate.NewRand(78))
	p := NewPlan(g)
	grid := warmTestGrid(t, g)

	clean, cleanStats, err := p.GridValues(context.Background(), grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cleanStats.IncrementalFallbacks != 0 {
		t.Fatalf("clean run recorded %d fallbacks", cleanStats.IncrementalFallbacks)
	}

	if err := fault.Arm("lp.incremental.distress=prob:0.5:41"); err != nil {
		t.Fatal(err)
	}
	faulty, stats, err := p.GridValues(context.Background(), grid, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sweep under injected distress: %v", err)
	}
	if fault.Fired("lp.incremental.distress") == 0 {
		t.Fatal("distress failpoint never fired — the schedule tested nothing")
	}
	if stats.IncrementalFallbacks == 0 {
		t.Fatal("injected distress recorded no fallbacks")
	}
	for i := range grid {
		if math.Float64bits(faulty[i]) != math.Float64bits(clean[i]) {
			t.Fatalf("grid[%d]: faulty run %v != clean run %v", i, faulty[i], clean[i])
		}
	}
}

// TestInjectedArenaFailurePropagates: the max-flow arena site fails the
// evaluation with a typed injected error instead of a panic or a wrong
// value, and a disarmed retry succeeds.
func TestInjectedArenaFailurePropagates(t *testing.T) {
	defer fault.Reset()
	g := generate.PlantedComponents([]int{30}, 4.0/30, generate.NewRand(5))
	p := NewPlan(g)
	grid := warmTestGrid(t, g)

	if err := fault.Arm("maxflow.arena=nth:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.GridValues(context.Background(), grid, Options{Workers: 1}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sweep err = %v, want injected arena failure", err)
	}
	fault.Reset()
	if _, _, err := p.GridValues(context.Background(), grid, Options{Workers: 1}); err != nil {
		t.Fatalf("sweep after disarm: %v", err)
	}

	// Several shards, each with LP work at more than one Δ. A failure
	// after the first Δ cancels the other jobs wherever they are, possibly
	// at an earlier Δ; the sweep must still report the injected failure,
	// not a cancelation it caused.
	g = generate.PlantedComponents([]int{30, 30, 30, 30}, 4.0/30, generate.NewRand(5))
	p = NewPlan(g)
	grid = warmTestGrid(t, g)
	hits := func(grid []float64) int {
		t.Helper()
		defer fault.Reset()
		if err := fault.Arm("maxflow.arena=nth:1000000"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.GridValues(context.Background(), grid, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return int(fault.Hits("maxflow.arena"))
	}
	first, total := hits(grid[:1]), hits(grid)
	if total <= first {
		t.Fatalf("arena hits: %d at the first Δ of %d in all — no LP work after the first Δ", first, total)
	}
	// Where the other jobs are when the failure fires depends on the
	// scheduler, so the parallel runs repeat.
	for _, workers := range []int{1, 4} {
		for k := first + 1; k <= total; k++ {
			for rep := 0; rep < workers*2; rep++ {
				if err := fault.Arm(fmt.Sprintf("maxflow.arena=nth:%d", k)); err != nil {
					t.Fatal(err)
				}
				_, _, err := p.GridValues(context.Background(), grid, Options{Workers: workers})
				fault.Reset()
				if !errors.Is(err, fault.ErrInjected) || errors.Is(err, context.Canceled) {
					t.Fatalf("workers %d, nth:%d: sweep err = %v, want the injected arena failure", workers, k, err)
				}
			}
		}
	}
}

// TestCanceledContextAbortsSweep: cancellation propagates into the LP
// loops and surfaces as the context's error.
func TestCanceledContextAbortsSweep(t *testing.T) {
	g := generate.PlantedComponents([]int{30}, 4.0/30, generate.NewRand(5))
	p := NewPlan(g)
	grid := warmTestGrid(t, g)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := p.GridValues(ctx, grid, Options{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep err = %v, want context.Canceled", err)
	}
}
