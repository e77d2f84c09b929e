package forestlp

// This file implements the parametric Δ-grid cutting-plane loop: the
// incremental counterpart of lpValue's rebuild loop, built on the standing
// lp.Incremental solver. The Δ-grid varies only the degree-row rhs — the
// columns and every subtour row are Δ-independent — so a piece that was
// solved at the previous grid point resumes by sliding its live tableau
// (one rhs update folded through B⁻¹, then a handful of dual-simplex
// repair pivots) instead of rebuilding rows and re-eliminating a basis.
// Cutting-plane rounds append their cuts to the same live object.
//
// The float fast path is certified, not trusted: the solver self-checks
// every optimum against the original constraint data and refactorizes on
// damage, and ANY failure it cannot heal — ErrNumericalDistress, a
// non-optimal status, row-cap overflow — abandons the standing solver and
// falls back to the rebuild path in lpValue, which recomputes the piece
// from the (deterministically grown) cut pool. The exact big.Rat oracle
// certifies the whole arrangement in the conformance tests.
//
// One deliberate divergence from the rebuild loop: no cut aging. The
// rebuild path parks slack cuts to keep the next rebuild small; here a
// slack cut is a basic-slack row that costs one tableau row and zero
// pivots, while evicting it would force exactly the rebuild this path
// exists to avoid. The active set therefore grows monotonically, bounded
// by incrRowCap.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nodedp/internal/fault"
	"nodedp/internal/graph"
	"nodedp/internal/lp"
)

// incrMinRows gates the parametric engine by base-row count, mirroring
// warmBasisMinRows: standing solvers earn their memory on the pieces where
// cold solves are superlinearly expensive. A variable so the conformance
// tests (which certify against the exact oracle on small pieces) can lower
// it; production code treats it as a constant.
var incrMinRows = warmBasisMinRows

// incrRowCap bounds the physical row count of a standing tableau. A piece
// whose active set outgrows it falls back to the rebuild path, whose
// cut aging keeps the working LP small.
const incrRowCap = 4096

// IncrementalCheapPivots is the Stats.ParametricCheapSolves threshold: a
// slid grid point that settles within this many total pivots counts as the
// near-zero-pivot outcome the sweep aims for. Exported so diagnostics can
// label the counter with its definition.
const IncrementalCheapPivots = 8

// lpValueIncr runs the cutting-plane loop for one piece on a standing
// incremental solver. It returns ok=false (with no error) when the piece
// should fall back to the rebuild path; an error return aborts the
// evaluation (context cancelation, malformed input). Cuts discovered
// before a fallback are already pooled, so the rebuild pass revives them
// instead of re-running max-flow separation.
func lpValueIncr(ctx context.Context, sub *graph.Graph, edges []graph.Edge, c []float64,
	baseRHS []float64, primalLB float64,
	opts Options, stats *Stats, sw *shardWarm, orig []int) (float64, bool, error) {

	m := len(c)
	// Injected max-flow arena-allocation failure. It fires here on the
	// error-propagating shard path — never inside the oracle's wave
	// workers, which have no recover and whose contract is to report
	// failures through the shard result channel.
	if err := fault.Hit("maxflow.arena"); err != nil {
		return 0, false, err
	}
	sep := newSeparator(sub, edges, resolveWorkers(opts.Workers, sepWaveWidth))
	defer func() { stats.CutsRevived += sep.revived }()

	fullRHS := func(active []*cut) []float64 {
		rhs := append([]float64(nil), baseRHS...)
		for _, ct := range active {
			rhs = append(rhs, float64(ct.size-1))
		}
		return rhs
	}

	active, memoBasis, seeded, pi := sw.injectIncr(sep, orig)
	stats.WarmCutsReused += seeded

	// Slide or build. A standing solver is only slid when its layout still
	// matches the memo-restored active set (a crashed or abandoned prior
	// evaluation can leave extra appended rows behind); otherwise it is
	// dropped and a fresh solver warm-starts from the memoized basis, which
	// is this path's equivalent of the rebuild+restore round.
	slid := false
	if pi != nil {
		if pi.Cols() == m && pi.Rows() == len(baseRHS)+len(active) &&
			pi.SetRHS(fullRHS(active)) == nil {
			slid = true
			stats.ParametricSlides++
		} else {
			pi = nil
			sw.dropIncr(orig)
		}
	}
	if pi == nil {
		rows := sep.baseRows()
		for _, ct := range active {
			rows.Add(ct.edgeIdx, nil)
		}
		lpOpts := lp.Options{MaxPivots: opts.maxPivots, Basis: memoBasis}
		var err error
		pi, err = lp.NewIncremental(c, rows, fullRHS(active), lpOpts)
		if err != nil {
			return 0, false, err
		}
	}

	fallback := func() (float64, bool, error) {
		sw.dropIncr(orig)
		return 0, false, nil
	}
	cheap := func(pivotsSpent int) {
		if slid && pivotsSpent <= IncrementalCheapPivots {
			stats.ParametricCheapSolves++
		}
	}

	var cutRows lp.Rows // each round's new cuts, over the last round's storage
	prevValue := math.Inf(1)
	stall := 0
	pivotsSpent := 0
	for round := 0; round < opts.maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		sol, err := pi.SolveCtx(ctx)
		stats.LPSolves++
		stats.SimplexPivots += sol.Pivots + sol.WarmPivots
		stats.Refactorizations += sol.Refactorizations
		pivotsSpent += sol.Pivots + sol.WarmPivots
		if err != nil {
			if errors.Is(err, lp.ErrNumericalDistress) {
				return fallback()
			}
			return 0, false, err
		}
		if round > 0 || slid || sol.WarmStarted {
			// Every solve on the standing object after the first continues
			// from the previous basis — the same event the rebuild path
			// counts as a warm-basis hit per round.
			stats.WarmBasisHits++
		}
		if sol.Status != lp.Optimal {
			// Unbounded cannot occur on a forest polytope (x(E) is capped by
			// the whole-component row); any non-optimal status here means
			// the standing object is not to be trusted.
			return fallback()
		}

		// Gap pinch — same certificate, same returned float, as the rebuild
		// path (the bound depends only on the piece and its caps).
		if sol.Value <= primalLB+engineTol {
			cheap(pivotsSpent)
			sw.storeIncr(orig, active, pi)
			return primalLB, true, nil
		}

		cuts, flows := sep.findViolated(sol.X, cutsPerRound)
		stats.MaxFlowCalls += flows
		if opts.onRound != nil {
			opts.onRound(round, len(active), len(cuts), sol.Value)
		}
		if len(cuts) == 0 {
			cheap(pivotsSpent)
			sw.storeIncr(orig, active, pi)
			value := sol.Value
			if value < 0 {
				value = 0
			}
			return value, true, nil
		}

		// Stall handling: identical thresholds and bailout semantics to the
		// rebuild path, so a piece that stalls returns the same kind of
		// bound whichever engine ran it.
		if sol.Value >= prevValue-1000*engineTol {
			stall++
		} else {
			stall = 0
		}
		if stall >= opts.stallRounds/2 {
			sep.flushParked()
		}
		prevValue = sol.Value
		if stall >= opts.stallRounds {
			cheap(pivotsSpent)
			sw.storeIncr(orig, active, pi)
			value := sol.Value
			if value < 0 {
				value = 0
			}
			if gap := value - primalLB; gap > engineTol {
				stats.StalledPieces++
				if gap > stats.StallGap {
					stats.StallGap = gap
				}
			}
			return value, true, nil
		}

		if len(baseRHS)+len(active)+len(cuts) > incrRowCap {
			return fallback()
		}
		cutRows.Truncate(0)
		newRHS := make([]float64, len(cuts))
		for i, ct := range cuts {
			cutRows.Add(ct.edgeIdx, nil)
			newRHS[i] = float64(ct.size - 1)
		}
		if err := pi.AppendRows(cutRows, newRHS); err != nil {
			return fallback()
		}
		for _, ct := range cuts {
			sw.addCut(orig, ct.ids)
		}
		active = append(active, cuts...)
		stats.CutsAdded += len(cuts)
	}
	return 0, false, fmt.Errorf("cutting planes did not converge in %d rounds", opts.maxRounds)
}
