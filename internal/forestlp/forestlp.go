// Package forestlp evaluates the paper's Lipschitz extensions f_Δ
// (Definition 3.1): f_Δ(G) is the maximum total edge weight over the
// Δ-bounded forest polytope P_Δ(G), the vectors x ∈ R^E with
//
//	x(e) ≥ 0                          for every edge e,
//	x(E[S]) ≤ |S| − 1                 for every S ⊆ V, |S| ≥ 2,
//	x(δ(v)) ≤ Δ                       for every vertex v.
//
// The exponentially many subtour constraints are generated lazily: a
// cutting-plane loop solves the relaxation with the constraints found so
// far and calls a Padberg–Wolsey separation oracle, which locates a
// violated x(E[S]) ≤ |S|−1 via max-closure/min-cut computations (one per
// forced vertex). This realizes the paper's "LP solver with an efficient
// linear separation oracle" (Lemma 3.3, Item 2) with a simplex instead of
// the ellipsoid method.
//
// Two structural facts keep this fast in practice:
//
//   - f_Δ is additive over connected components (every cross-component
//     subtour constraint is implied by per-component ones), so each
//     component gets its own small LP; and
//   - if a component has a spanning forest of maximum degree ≤ Δ, then
//     f_Δ equals f_sf there (Lemma 3.3, Item 1) and no LP is needed. The
//     fast path tries the BFS forest and then a degree-reducing local
//     search before falling back to the LP.
//
// The evaluator is organized as a sharded engine: a Plan (planner.go)
// snapshots the graph into an immutable CSR, decomposes it into
// per-component shards, and caches the delta-independent triage data; the
// engine (engine.go) then solves the independent shard LPs concurrently on
// a worker pool — one job per shard, covering the shard's whole Δ-grid in
// order on one worker, largest shards first — and merges per Δ in shard
// order, so results are bit-for-bit identical for every Workers setting.
// Value and ValueCtx are one-shot wrappers. Algorithm 1 sweeps one Plan
// across its whole Δ-grid (Plan.Sweep), which returns every component's
// value vector and work counters; internal/core sums them with the
// components its sub-plan store already holds, which the plan leaves
// unplanned (NewPlanShards). A traced sweep opens one forestlp.point span
// per Δ before the first job starts and closes them all at the merge.
package forestlp

import (
	"context"
	"fmt"
	"math"

	"nodedp/internal/fault"
	"nodedp/internal/graph"
	"nodedp/internal/lp"
	"nodedp/internal/spanning"
)

// Options schedules the evaluator's work. The zero value is ready to use.
// No exported field changes a value: f_Δ depends only on the graph and Δ,
// and the engine's tuning is fixed (see the constants below).
type Options struct {
	// Workers is the number of component LPs solved concurrently, and
	// also bounds the concurrent max-closure oracle calls inside one
	// component's separation round (capped at the oracle's wave width of
	// 16), which is the parallelism a giant single-shard component
	// needs. 0 (the default) means runtime.GOMAXPROCS; 1 forces serial
	// evaluation. The returned value and all counting statistics
	// (max-flow calls included) are identical for every setting: only
	// wall-clock time changes.
	Workers int

	// Test hooks, set only by this package's tests; the zero value is the
	// production engine. noFastPath forces the LP past the spanning-forest
	// certificates and noPeel skips leaf peeling (both leave values
	// unchanged); maxRounds and stallRounds override roundLimit and
	// stallLimit; maxPivots starves each simplex solve; onRound observes
	// every cutting-plane round, concurrently when Workers > 1.
	noFastPath, noPeel     bool
	maxRounds, stallRounds int
	maxPivots              int
	onRound                func(round, activeCuts, newCuts int, value float64)
}

// The cutting-plane loop's fixed tuning.
const (
	// engineTol is the violation and feasibility tolerance.
	engineTol = 1e-7
	// roundLimit caps cutting-plane rounds per piece.
	roundLimit = 1000
	// cutsPerRound admits only the most violated cuts each round, keeping
	// the working LP small.
	cutsPerRound = 48
	// dropSlackAfter ages out a cut after this many consecutive slack
	// rounds.
	dropSlackAfter = 3
	// stallLimit abandons a piece after this many consecutive rounds
	// without objective improvement, returning the relaxation bound and
	// recording the residual gap in Stats (see Stats.StalledPieces).
	stallLimit = 80
)

// withDefaults resolves the round and stall budgets of the test hooks.
func (o Options) withDefaults() Options {
	if o.maxRounds <= 0 {
		o.maxRounds = roundLimit
	}
	if o.stallRounds <= 0 {
		o.stallRounds = stallLimit
	}
	return o
}

// Stats reports the work done by one Value evaluation.
type Stats struct {
	// Components is the number of connected components processed.
	Components int
	// FastPathHits counts components settled by a spanning Δ-forest.
	FastPathHits int
	// LPSolves counts simplex solves across all components and rounds.
	LPSolves int
	// CutsAdded counts subtour constraints generated by separation.
	CutsAdded int
	// MaxFlowCalls counts min-cut computations inside separation.
	MaxFlowCalls int
	// SimplexPivots sums pivots over all LP solves.
	SimplexPivots int
	// CutsRevived counts violated constraints served by the zero-flow
	// parked-cut pool instead of the max-flow oracle (aged-out actives,
	// truncation overflow, and cross-Δ pool seeds that became violated
	// again).
	CutsRevived int
	// WarmCutsReused counts subtour constraints seeded from the cross-Δ
	// cut pool instead of being re-discovered by the oracle (grid sweeps
	// only).
	WarmCutsReused int
	// WarmBasisHits counts LP solves that successfully resumed from a
	// previous basis — the preceding cutting-plane round's, or a matching
	// piece's at the neighboring grid point — instead of the all-slack
	// start (restoration plus dual repair, see internal/lp).
	WarmBasisHits int
	// Refactorizations counts standing-tableau rebuilds performed by the
	// incremental solver to shed accumulated floating-point damage (see
	// internal/lp.Incremental; 0 when no piece ran on a standing solver).
	Refactorizations int
	// ParametricSlides counts piece solves that reached a new Δ grid point
	// by sliding a standing solver — a rhs update plus dual repair on the
	// live tableau — instead of rebuilding rows and restoring a basis.
	ParametricSlides int
	// ParametricCheapSolves counts slid piece solves that settled within
	// IncrementalCheapPivots total pivots — the "grid point in near-zero pivots"
	// outcome the parametric sweep exists for.
	ParametricCheapSolves int
	// IncrementalFallbacks counts pieces that abandoned the parametric
	// path mid-solve (numerical distress, row-cap overflow) and re-solved
	// from scratch via the rebuild path. The fallback re-does the piece's
	// LP work but never changes its value.
	IncrementalFallbacks int
	// StalledPieces counts LP pieces abandoned on a degenerate optimal
	// face. For such pieces the returned value is the stalled relaxation
	// bound: it never exceeds f_sf (the clamp guarantees underestimation
	// against the target) but may overestimate the true f_Δ by at most
	// StallGap.
	StalledPieces int
	// StallGap is the largest upper-minus-lower bound gap among stalled
	// pieces (0 when every piece converged or was certified exactly).
	StallGap float64
	// Workers is the worker-pool size the engine resolved for this
	// evaluation over every non-trivial component, supplied ones included
	// (aggregations keep the maximum).
	Workers int
}

// MergeComponent folds grid-aggregated statistics — one component's
// GridSweep.Work entry, or a whole sweep's Stats — into a whole-graph
// aggregate: counters (Components included) accumulate and gauges keep
// maxima. The engine merges its shards' statistics the same way.
func (s *Stats) MergeComponent(t Stats) {
	s.Components += t.Components
	s.FastPathHits += t.FastPathHits
	s.LPSolves += t.LPSolves
	s.CutsAdded += t.CutsAdded
	s.MaxFlowCalls += t.MaxFlowCalls
	s.SimplexPivots += t.SimplexPivots
	s.CutsRevived += t.CutsRevived
	s.WarmCutsReused += t.WarmCutsReused
	s.WarmBasisHits += t.WarmBasisHits
	s.Refactorizations += t.Refactorizations
	s.ParametricSlides += t.ParametricSlides
	s.ParametricCheapSolves += t.ParametricCheapSolves
	s.IncrementalFallbacks += t.IncrementalFallbacks
	s.StalledPieces += t.StalledPieces
	if t.StallGap > s.StallGap {
		s.StallGap = t.StallGap
	}
	if t.Workers > s.Workers {
		s.Workers = t.Workers
	}
}

// MergeGridRound folds the statistics of one evaluation into an aggregate
// over a Δ-grid sweep of the same plan: counters accumulate, gauges keep
// their maxima, and Components — identical each round by construction —
// keeps the per-round value instead of summing.
func (s *Stats) MergeGridRound(t Stats) {
	s.MergeComponent(t)
	s.Components = t.Components
}

// Value computes f_Δ(G). delta must be positive. The result is clamped to
// [0, f_sf(G)] to preserve the underestimation property (Lemma 3.3) exactly
// even under floating-point slack. It is ValueCtx without cancelation; to
// evaluate many Δ on the same graph, build one Plan and reuse it.
func Value(g *graph.Graph, delta float64, opts Options) (float64, Stats, error) {
	return ValueCtx(context.Background(), g, delta, opts)
}

// ValueCtx is Value with cancelation and deadline support: ctx is checked
// before every shard and between cutting-plane rounds, so long LP solves
// abort promptly with ctx.Err().
func ValueCtx(ctx context.Context, g *graph.Graph, delta float64, opts Options) (float64, Stats, error) {
	if err := checkDelta(delta); err != nil {
		return 0, Stats{}, err
	}
	return NewPlan(g).Value(ctx, delta, opts)
}

// checkDelta rejects non-positive and non-finite Lipschitz parameters.
func checkDelta(delta float64) error {
	if delta <= 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("forestlp: delta must be positive and finite, got %v", delta)
	}
	return nil
}

// maxWarmFails is the per-piece strike limit on rejected warm bases: a
// failed restoration costs real pivots and then solves cold anyway, and on
// degenerate pieces the failure repeats round after round.
const maxWarmFails = 2

// warmBasisMinRows gates the round-to-round (and cross-Δ) simplex basis
// reuse by LP size: restoring a basis costs about one elimination per
// basic structural variable, which rivals a full cold solve on small
// programs — warm starts only pay off once the cold solve is
// superlinearly more expensive than the restoration.
const warmBasisMinRows = 96

// lpValue solves max x(E) over the forest polytope of sub intersected with
// per-vertex degree budgets, by cutting planes. sw, when non-nil, is the
// owning shard's cross-Δ warm-start state and orig the piece→shard vertex
// map: pooled subtour cuts seed the first relaxation (they are valid at
// every Δ), a matching piece resumes from its previous simplex basis, and
// every cut generated here is pooled for the neighboring grid points.
func lpValue(ctx context.Context, sub *graph.Graph, caps []float64, opts Options, stats *Stats, sw *shardWarm, orig []int) (float64, error) {
	n := sub.N()
	fsf := float64(n - 1)

	// Primal certificate: a spanning forest respecting the integer parts
	// of the budgets achieves the whole-set upper bound |piece|−1, which
	// settles the LP without cutting planes. This is what terminates the
	// massively degenerate instances where Kelley cuts churn across an
	// optimal face: on hub graphs the optimum is symmetric in which spokes
	// carry weight, so new cuts keep moving the LP point along that face
	// without lowering the objective (the stall detection below handles
	// the pieces this certificate misses).
	if !opts.noFastPath {
		intCaps := make([]int, n)
		feasible := true
		for v := range intCaps {
			intCaps[v] = int(math.Floor(caps[v] + 1e-9))
			if intCaps[v] < 0 {
				feasible = false
			}
		}
		if feasible {
			if _, ok := spanning.CappedSpanningForest(sub, intCaps); ok {
				stats.FastPathHits++
				return fsf, nil
			}
		}
	}

	edges := sub.Edges()
	m := len(edges)
	c := make([]float64, m)
	for i := range c {
		c[i] = 1
	}

	// Base constraints: degree rows and the whole-component subtour row.
	// Their rhs is built here; the rows themselves only where a solver is
	// (separator.baseRows), so a parametric slide builds none.
	baseRHS := make([]float64, n+1)
	for v := 0; v < n; v++ {
		baseRHS[v] = caps[v]
		if caps[v] < 0 {
			baseRHS[v] = 0
		}
	}
	baseRHS[n] = fsf

	// primalLB is the value of a greedily built feasible 0/1 forest — a
	// lower bound on the piece's optimum that the relaxation value (an
	// upper bound) is compared against every round: once they meet, the
	// piece is solved, skipping both further cutting-plane rounds and the
	// final certification sweep of the oracle. The bound depends only on
	// (sub, caps), so every configuration returns the identical float when
	// the pinch fires, whatever route its relaxation took there.
	primalLB := float64(primalCappedForestBound(sub, caps))

	// Parametric fast path: pieces above the size gate mutate one standing
	// solver (rhs slides across Δ, row appends for cuts) instead of
	// rebuilding. Any trouble — numerical distress, row-cap overflow —
	// falls through to the rebuild loop below, which re-solves the piece
	// from the (deterministically grown) cut pool.
	if sw != nil && len(baseRHS) >= incrMinRows {
		v, ok, err := lpValueIncr(ctx, sub, edges, c, baseRHS, primalLB, opts, stats, sw, orig)
		if err != nil {
			return 0, err
		}
		if ok {
			return v, nil
		}
		stats.IncrementalFallbacks++
	}

	// Same injected arena-allocation failure as the parametric path: on
	// the calling goroutine, before any wave worker exists.
	if err := fault.Hit("maxflow.arena"); err != nil {
		return 0, err
	}
	sep := newSeparator(sub, edges, resolveWorkers(opts.Workers, sepWaveWidth))
	defer func() { stats.CutsRevived += sep.revived }()

	// Cross-Δ warm start: seed the parked pool with every cut known for
	// this piece's shard and, for a structurally matching piece, resume
	// from the previous grid point's active rows and simplex basis.
	var active []*cut
	var curBasis []int // basis aligned with the upcoming solve's row layout
	if sw != nil {
		var seeded int
		active, curBasis, seeded = sw.inject(sep, orig)
		stats.WarmCutsReused += seeded
	}

	// Each round's program is the base rows and the active cuts' rows, laid
	// out over the previous round's storage.
	rows := sep.baseRows()
	baseRowCount := rows.Len()
	rhs := baseRHS[:baseRowCount:baseRowCount]
	prevValue := math.Inf(1)
	stall := 0
	warmFails := 0
	for round := 0; round < opts.maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		rows.Truncate(baseRowCount)
		rhs = rhs[:baseRowCount]
		for _, ct := range active {
			rows.Add(ct.edgeIdx, nil)
			rhs = append(rhs, float64(ct.size-1))
		}
		lpOpts := lp.Options{MaxPivots: opts.maxPivots}
		if len(rhs) >= warmBasisMinRows && warmFails < maxWarmFails {
			lpOpts.Basis = curBasis
		}
		sol, err := lp.MaximizeCtx(ctx, c, rows, rhs, lpOpts)
		stats.LPSolves++
		stats.SimplexPivots += sol.Pivots + sol.WarmPivots
		if err != nil {
			return 0, err
		}
		if sol.WarmStarted {
			stats.WarmBasisHits++
		} else if lpOpts.Basis != nil {
			// A rejected basis burned its restoration and repair pivots and
			// then solved cold anyway; on degenerate pieces that failure
			// mode repeats, so stop offering bases after a couple of
			// strikes.
			warmFails++
		}
		if sol.Status != lp.Optimal {
			return 0, fmt.Errorf("LP solve ended with status %v", sol.Status)
		}
		// Gap pinch: sol.Value bounds the optimum from above, primalLB from
		// below; when they meet within tolerance the piece is solved.
		if sol.Value <= primalLB+engineTol {
			if sw != nil {
				sw.store(orig, active, sol.Basis)
			}
			return primalLB, nil
		}
		prevBasis := sol.Basis
		prevActive := append([]*cut(nil), active...)

		cuts, flows := sep.findViolated(sol.X, cutsPerRound)
		stats.MaxFlowCalls += flows
		if opts.onRound != nil {
			opts.onRound(round, len(active), len(cuts), sol.Value)
		}
		if len(cuts) == 0 {
			if sw != nil {
				sw.store(orig, active, sol.Basis)
			}
			value := sol.Value
			if value < 0 {
				value = 0
			}
			return value, nil
		}

		// Stall detection: a frozen objective across many rounds while new
		// cuts keep appearing means Kelley is walking a degenerate optimal
		// face (e.g. hub graphs, whose optima are symmetric in which
		// spokes carry weight). "Frozen" uses a coarser threshold than the
		// feasibility tolerance: cheap parked-cut revivals let degenerate
		// instances creep by O(engineTol·10³) per round forever, which is
		// the same pathology at a glacial pace. Try to certify the frozen
		// value with a primal capped-forest bound; otherwise return the
		// relaxation bound and record the residual gap.
		if sol.Value >= prevValue-1000*engineTol {
			stall++
		} else {
			stall = 0
		}
		if stall >= opts.stallRounds/2 && !sep.noRevive {
			sep.flushParked()
		}
		prevValue = sol.Value
		if stall >= opts.stallRounds {
			if sw != nil {
				sw.store(orig, active, sol.Basis)
			}
			lb := primalLB
			value := sol.Value
			if value < 0 {
				value = 0
			}
			if gap := value - lb; gap > engineTol {
				stats.StalledPieces++
				if gap > stats.StallGap {
					stats.StallGap = gap
				}
			}
			return value, nil
		}

		// Cut management: age out constraints that have been slack for
		// several consecutive rounds (parking them for free revival), then
		// admit the new violated cuts — pooling each for the neighboring
		// grid points, where they remain valid.
		kept := active[:0]
		for _, ct := range active {
			lhs := 0.0
			for _, i := range ct.edgeIdx {
				lhs += sol.X[i]
			}
			if lhs < float64(ct.size-1)-engineTol {
				ct.slackRounds++
			} else {
				ct.slackRounds = 0
			}
			if ct.slackRounds >= dropSlackAfter && (ct.revivals < 2 || sep.noRevive) {
				ct.slackParked = true
				sep.park(ct)
				continue
			}
			kept = append(kept, ct)
		}
		if sw != nil {
			for _, ct := range cuts {
				sw.addCut(orig, ct.ids)
			}
		}
		active = append(kept, cuts...)
		stats.CutsAdded += len(cuts)
		// Resume the next round from this optimum: the surviving rows keep
		// their basic variables, the new cut rows start slack-basic
		// (primal-infeasible exactly there), and lp.Maximize repairs that
		// with a few dual pivots instead of a cold re-solve. Skip the
		// translation whenever the basis could never be offered: next
		// round's LP below the size gate, or this piece's warm-fail strikes
		// exhausted.
		if warmFails >= maxWarmFails || baseRowCount+len(active) < warmBasisMinRows {
			curBasis = nil
		} else {
			curBasis = mapBasis(prevBasis, prevActive, active, m, baseRowCount)
		}
	}
	return 0, fmt.Errorf("cutting planes did not converge in %d rounds", opts.maxRounds)
}

// mapBasis translates a basis across a cutting-plane row change: base rows
// keep their positions, surviving cuts map old row → new row, dropped rows
// vanish (their basic variable with them), and rows without a mapped basic
// variable — the newly admitted cuts — start with their own slack. Returns
// nil when the old basis is not translatable (a basic slack belonged to a
// dropped row); lp.Maximize additionally validates whatever this produces
// and falls back to a cold start on rejection, so the mapping may be
// lenient.
func mapBasis(prev []int, prevActive, active []*cut, cols, baseRows int) []int {
	if prev == nil {
		return nil
	}
	pos := make(map[*cut]int, len(active))
	for i, ct := range active {
		pos[ct] = i
	}
	oldToNew := make([]int, baseRows+len(prevActive))
	for i := 0; i < baseRows; i++ {
		oldToNew[i] = i
	}
	for i, ct := range prevActive {
		if j, ok := pos[ct]; ok {
			oldToNew[baseRows+i] = baseRows + j
		} else {
			oldToNew[baseRows+i] = -1
		}
	}
	out := make([]int, baseRows+len(active))
	for i := range out {
		out[i] = -1
	}
	for oldRow, v := range prev {
		newRow := oldToNew[oldRow]
		if newRow == -1 {
			continue // dropped row: its basic variable leaves the basis
		}
		if v >= cols {
			s := oldToNew[v-cols]
			if s == -1 {
				return nil // basic slack of a dropped row: untranslatable
			}
			v = cols + s
		}
		out[newRow] = v
	}
	for i := range out {
		if out[i] == -1 {
			out[i] = cols + i
		}
	}
	return out
}
