package forestlp

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"nodedp/internal/graph"
	"nodedp/internal/obs"
	"nodedp/internal/spanning"
)

// This file implements the shard planner: the delta-independent half of
// evaluating f_Δ. Because f_Δ is additive over connected components (every
// cross-component subtour constraint is implied by per-component ones), a
// Plan decomposes the graph once — via an immutable CSR snapshot — into
// per-component shards and precomputes, per shard, the structural
// quantities that the fast-path triage of Lemma 3.3 Item 1 compares
// against Δ: the BFS-forest maximum degree and the heuristic low-degree
// spanning-forest bound on Δ*. Algorithm 1 evaluates f_Δ on the whole
// power-of-two grid {1, 2, 4, …}; with a Plan the decomposition and triage
// structure are paid once, not once per grid point.
//
// The delta-dependent half — triage comparisons, peeling, and the
// cutting-plane LPs — runs in engine.go, which schedules the shards of a
// Plan onto a worker pool.

// Plan is the reusable decomposition of a graph for f_Δ evaluation. It is
// immutable after construction and safe for concurrent use; build it once
// and call Value for as many (Δ, Options) pairs as needed.
type Plan struct {
	components int // total component count, including isolated vertices
	supplied   int // non-trivial components left unplanned (see NewPlanShards)
	fsf        int // f_sf = Σ over non-trivial components (|C| − 1), supplied ones included
	shards     []*planShard
}

// planShard is one connected component with ≥ 2 vertices, together with
// its delta-independent triage data.
type planShard struct {
	comp int          // index in the component decomposition
	sub  *graph.Graph // materialized component, local vertex ids
	n    int
	m    int

	// bfsDeg is the maximum degree of the deterministic BFS spanning tree:
	// Δ ≥ bfsDeg certifies f_Δ = f_sf on this shard (Lemma 3.3 Item 1).
	bfsDeg int

	// lowDeg is the maximum degree of the heuristic low-degree spanning
	// tree, a sharper (but costlier) certificate threshold. It is computed
	// lazily on the first evaluation with bfsDeg > Δ ≥ 1 and cached for
	// every later grid point.
	lowDegOnce sync.Once
	lowDeg     int
}

// NewPlan snapshots g into a CSR and plans its component shards.
func NewPlan(g *graph.Graph) *Plan { return NewPlanCSR(graph.NewCSR(g)) }

// NewPlanCSR plans the component shards of an existing CSR snapshot.
func NewPlanCSR(csr *graph.CSR) *Plan { return NewPlanShards(csr.ComponentShards(), nil) }

// NewPlanShards plans a component decomposition in the order of
// graph.CSR.ComponentShards. A non-trivial component c with supplied(c)
// true is left unplanned — its values come from elsewhere (internal/core's
// sub-plan store), so its shard is never materialized and Sweep skips it —
// but it still counts toward the plan's shape: SpanningForestSize and the
// worker-pool size reported in Stats.Workers. A nil supplied plans every
// component. Value and GridValues cover the planned components only.
func NewPlanShards(shards []*graph.Shard, supplied func(c int) bool) *Plan {
	p := &Plan{components: len(shards)}
	for c, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		p.fsf += sh.N() - 1
		if supplied != nil && supplied(c) {
			p.supplied++
			continue
		}
		sub := sh.Graph()
		p.shards = append(p.shards, &planShard{
			comp:   c,
			sub:    sub,
			n:      sub.N(),
			m:      sub.M(),
			bfsDeg: graph.MaxDegreeOfEdgeSet(sub.N(), sub.SpanningForest()),
		})
	}
	return p
}

// SpanningForestSize returns f_sf of the planned graph.
func (p *Plan) SpanningForestSize() int { return p.fsf }

// Shards returns the number of planned non-trivial (≥ 2 vertex) component
// shards, i.e. the maximum useful worker count.
func (p *Plan) Shards() int { return len(p.shards) }

// GridSweep is the outcome of Plan.Sweep, per component and aggregated.
type GridSweep struct {
	// Values[c] is component c's contribution to f_Δ at each grid point
	// (clamped to [0, |C|−1], not yet summed) and Work[c] its
	// grid-aggregated work, with Components = 1. Both are empty for
	// isolated vertices and supplied components; c indexes the
	// decomposition the plan was built from.
	Values [][]float64
	Work   []Stats
	// Stats aggregates the sweep: the counters of every evaluated
	// component, Components counting them (isolated vertices included),
	// the resolved Workers, and per-shard timings when
	// Options.ShardTimings is set.
	Stats Stats
	// totals[j] is f_Δ of the planned components at grid[j] (GridValues).
	totals []float64
}

// Sweep evaluates f_Δ for every Δ in grid on every planned component: one
// grid point after another, each point's shards on the Workers pool. It
// returns each component's value vector and work natively, so a caller
// holding other components' values (see NewPlanShards) merges them in
// shard order; GridValues is that merge for a fully planned graph.
//
// Unless opts.DisableWarmStart, the sweep threads a per-shard warm-start
// state between grid points: subtour cuts generated at one Δ are valid at
// every other (only the degree rows depend on Δ), so they are injected
// into the neighboring evaluations instead of being re-separated, and a
// piece whose structure recurs resumes from its previous simplex basis.
// On converging pieces warm starts change the work counters
// (Stats.MaxFlowCalls, Stats.SimplexPivots, Stats.WarmCutsReused,
// Stats.WarmBasisHits), never the returned values; see
// Options.DisableWarmStart for the stall-bailout caveat. The state is
// owned by this call, so concurrent sweeps on one Plan stay independent.
func (p *Plan) Sweep(ctx context.Context, grid []float64, opts Options) (GridSweep, error) {
	// Tracing (internal/obs): one "forestlp.grid" span for the sweep with
	// the aggregated Stats counters as attributes, plus one
	// "forestlp.point" child per Δ carrying that point's deltas. Grid
	// points run sequentially, so span creation order — and therefore the
	// span tree — is deterministic; the per-point child context also
	// collects the lp pivot-loop counters its shard workers accumulate.
	span, ctx := obs.StartSpan(ctx, "forestlp.grid")
	defer span.End()
	out := GridSweep{
		Values: make([][]float64, p.components),
		Work:   make([]Stats, p.components),
		totals: make([]float64, len(grid)),
	}
	for _, ps := range p.shards {
		out.Values[ps.comp] = make([]float64, len(grid))
		out.Work[ps.comp].Components = 1
	}
	var warm *gridWarm
	if !opts.DisableWarmStart {
		warm = newGridWarm(p)
	}
	for j, d := range grid {
		point, pctx := obs.StartSpan(ctx, "forestlp.point")
		total, results, st, err := p.point(pctx, d, opts, warm)
		setStatAttrs(point, st)
		point.SetLabel("delta", strconv.FormatFloat(d, 'g', -1, 64))
		point.End()
		if err != nil {
			setStatAttrs(span, out.Stats)
			return out, fmt.Errorf("evaluating f_%v: %w", d, err)
		}
		out.Stats.MergeGridRound(st)
		out.totals[j] = total
		for i, ps := range p.shards {
			out.Values[ps.comp][j] = results[i].value
			out.Work[ps.comp].MergeComponent(results[i].stats)
		}
	}
	span.SetCounter("grid_points", int64(len(grid)))
	setStatAttrs(span, out.Stats)
	return out, nil
}

// GridValues evaluates f_Δ for every Δ in grid on the shared plan,
// returning the values in grid order together with the grid-aggregated
// statistics (counters accumulate across grid points, gauges keep maxima,
// Components keeps the per-round value — see Stats.MergeGridRound). It is
// Sweep with the shard values summed in shard order and clamped to
// [0, f_sf]: one snapshot, one shard decomposition, and one set of triage
// certificates serve the whole grid.
func (p *Plan) GridValues(ctx context.Context, grid []float64, opts Options) ([]float64, Stats, error) {
	sw, err := p.Sweep(ctx, grid, opts)
	if err != nil {
		return nil, sw.Stats, err
	}
	return sw.totals, sw.Stats, nil
}

// setStatAttrs exports the deterministic work counters of a Stats onto a
// span — the attribution the conformance suite checks equals the Stats the
// serving layer reports.
func setStatAttrs(sp *obs.Span, st Stats) {
	if sp == nil {
		return
	}
	sp.SetCounter("components", int64(st.Components))
	sp.SetCounter("fast_path_hits", int64(st.FastPathHits))
	sp.SetCounter("lp_solves_total", int64(st.LPSolves))
	sp.SetCounter("cuts_added", int64(st.CutsAdded))
	sp.SetCounter("max_flow_calls", int64(st.MaxFlowCalls))
	sp.SetCounter("simplex_pivots", int64(st.SimplexPivots))
	sp.SetCounter("warm_cuts_reused", int64(st.WarmCutsReused))
	sp.SetCounter("warm_basis_hits", int64(st.WarmBasisHits))
	sp.SetCounter("parametric_slides", int64(st.ParametricSlides))
	sp.SetCounter("incremental_fallbacks", int64(st.IncrementalFallbacks))
}

// lowDegree returns the cached low-degree spanning-forest bound, computing
// it on first use. Safe for concurrent callers.
func (ps *planShard) lowDegree() int {
	ps.lowDegOnce.Do(func() {
		_, ps.lowDeg = spanning.LowDegreeSpanningForest(ps.sub)
	})
	return ps.lowDeg
}

// eval computes f_Δ restricted to this shard. It is the delta-dependent
// pipeline: fast-path triage (three certificates of increasing cost), then
// exact leaf peeling, then one cutting-plane LP per remaining 2-core piece.
// sw, when non-nil, is this shard's cross-Δ warm-start state (cut pool and
// piece basis memos); it is touched by exactly one goroutine at a time —
// the worker evaluating this shard — because grid points run sequentially.
func (ps *planShard) eval(ctx context.Context, delta float64, opts Options, sw *shardWarm) (float64, Stats, error) {
	var stats Stats
	fsf := float64(ps.n - 1)

	if !opts.DisableFastPath {
		// Lemma 3.3, Item 1: a spanning Δ-forest certifies f_Δ = f_sf.
		if float64(ps.bfsDeg) <= delta {
			stats.FastPathHits++
			return fsf, stats, nil
		}
		if delta >= 1 {
			if float64(ps.lowDegree()) <= delta {
				stats.FastPathHits++
				return fsf, stats, nil
			}
			// Last cheap attempt: the paper's own Algorithm 3. It is only
			// guaranteed for Δ > s(G), but succeeds opportunistically far
			// beyond that; a returned forest is always a valid certificate.
			if di := int(math.Floor(delta)); di >= 1 {
				if forest, _, err := spanning.Repair(ps.sub, di); err == nil && forest != nil {
					if graph.MaxDegreeOfEdgeSet(ps.n, forest) <= di && len(forest) == ps.n-1 {
						stats.FastPathHits++
						return fsf, stats, nil
					}
				}
			}
		}
	}

	// Exact preprocessing: strip the tree-like fringe (see peel), then
	// solve the LP on each remaining connected piece with its residual
	// per-vertex budgets.
	reduced, caps, fixed := ps.sub, uniformCaps(ps.n, delta), 0.0
	if !opts.DisablePeel {
		reduced, caps, fixed = peel(ps.sub, delta)
	}
	total := fixed
	for _, piece := range reduced.ComponentSets() {
		if len(piece) < 2 {
			continue
		}
		psub, orig, err := reduced.InducedSubgraph(piece)
		if err != nil {
			panic(err) // component sets are always valid
		}
		if psub.M() == 0 {
			continue
		}
		pcaps := make([]float64, len(orig))
		for i, ov := range orig {
			pcaps[i] = caps[ov]
		}
		v, err := lpValue(ctx, psub, pcaps, opts, &stats, sw, orig)
		if err != nil {
			return 0, stats, err
		}
		total += v
	}
	if total > fsf {
		total = fsf
	}
	if total < 0 {
		total = 0
	}
	return total, stats, nil
}
