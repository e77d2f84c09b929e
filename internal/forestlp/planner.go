package forestlp

import (
	"cmp"
	"context"
	"slices"
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
	// order lists the shard indices largest first — by edge count, ties to
	// the lower index — the order the engine dispatches their jobs in.
	order []int
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
	p.order = make([]int, len(p.shards))
	for i := range p.order {
		p.order[i] = i
	}
	slices.SortFunc(p.order, func(a, b int) int {
		if c := cmp.Compare(p.shards[b].m, p.shards[a].m); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return p
}

// SpanningForestSize returns f_sf of the planned graph.
func (p *Plan) SpanningForestSize() int { return p.fsf }

// Shards returns the number of planned non-trivial (≥ 2 vertex) component
// shards, i.e. the maximum useful worker count.
func (p *Plan) Shards() int { return len(p.shards) }

// GridSweep is the outcome of Plan.Sweep, per planned component and
// aggregated.
type GridSweep struct {
	// Comps, Values and Work hold one entry per planned component, in
	// shard order: Comps[i] is its index in the decomposition the plan was
	// built from, Values[i] its contribution to f_Δ at each grid point
	// (clamped to [0, |C|−1], not yet summed) and Work[i] its
	// grid-aggregated work, with Components = 1. Isolated vertices and
	// supplied components have no entry, so a graph of many isolated
	// vertices costs nothing here.
	Comps  []int
	Values [][]float64
	Work   []Stats
	// Stats aggregates the sweep: the counters of every evaluated
	// component, Components counting them (isolated vertices included),
	// and the resolved Workers.
	Stats Stats
	// totals[j] is f_Δ of the planned components at grid[j] (GridValues).
	totals []float64
}

// Sweep evaluates f_Δ for every Δ in grid on every planned component. Each
// shard's whole grid runs as one job on the Workers pool — its grid points
// in order, on one worker — largest shards first, and the results merge
// per Δ in shard order. It returns each component's value vector and work
// natively, so a caller holding other components' values (see
// NewPlanShards) merges them in shard order; GridValues is that merge for
// a fully planned graph.
//
// The sweep threads a per-shard warm-start state between grid points:
// subtour cuts generated at one Δ are valid at every other (only the
// degree rows depend on Δ), so they are injected into the neighboring
// evaluations instead of being re-separated, and a piece whose structure
// recurs resumes from its previous simplex basis — or, above the
// parametric size gate, slides its standing solver to the new Δ. On
// converging pieces this state changes the work counters
// (Stats.MaxFlowCalls, Stats.SimplexPivots, Stats.WarmCutsReused,
// Stats.WarmBasisHits), not the optimum the values report — the
// conformance tests pin them to per-point Plan.Value, which carries no
// cross-Δ state. A piece that hits the stall bailout returns its
// path-dependent relaxation bound instead (see Stats.StalledPieces). The
// state is owned by this call, so concurrent sweeps on one Plan stay
// independent. A failed sweep returns no values.
func (p *Plan) Sweep(ctx context.Context, grid []float64, opts Options) (GridSweep, error) {
	// Tracing (internal/obs): one "forestlp.grid" span for the sweep with
	// the aggregated Stats counters as attributes, plus one
	// "forestlp.point" child per Δ carrying that point's counters (see
	// evaluate). Spans are created in grid order before any job starts, so
	// the span tree is deterministic; each point span runs until the merge.
	span, ctx := obs.StartSpan(ctx, "forestlp.grid")
	defer span.End()
	points, err := p.evaluate(ctx, grid, opts, newGridWarm(p), true)
	if err != nil {
		return GridSweep{}, err
	}
	out := GridSweep{
		Comps:  make([]int, len(p.shards)),
		Values: make([][]float64, len(p.shards)),
		Work:   make([]Stats, len(p.shards)),
		totals: make([]float64, len(grid)),
	}
	for i, ps := range p.shards {
		out.Comps[i] = ps.comp
		out.Values[i] = make([]float64, len(grid))
		out.Work[i].Components = 1
	}
	for j, pt := range points {
		out.Stats.MergeGridRound(pt.stats)
		out.totals[j] = pt.total
		for i := range p.shards {
			out.Values[i][j] = pt.shards[i].value
			out.Work[i].MergeComponent(pt.shards[i].stats)
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
// pipeline: fast-path triage (two spanning-forest certificates, the BFS
// tree's and the cached low-degree forest's), then exact leaf peeling, then
// one cutting-plane LP per remaining 2-core piece.
// sw, when non-nil, is this shard's cross-Δ warm-start state (cut pool and
// piece basis memos); it is touched by one goroutine only — the worker
// running this shard's job, which evaluates the grid points in order.
func (ps *planShard) eval(ctx context.Context, delta float64, opts Options, sw *shardWarm) (float64, Stats, error) {
	var stats Stats
	fsf := float64(ps.n - 1)

	if !opts.noFastPath {
		// Lemma 3.3, Item 1: a spanning Δ-forest certifies f_Δ = f_sf.
		if float64(ps.bfsDeg) <= delta {
			stats.FastPathHits++
			return fsf, stats, nil
		}
		if delta >= 1 && float64(ps.lowDegree()) <= delta {
			stats.FastPathHits++
			return fsf, stats, nil
		}
	}

	// Exact preprocessing: strip the tree-like fringe (see peel), then
	// solve the LP on each remaining connected piece with its residual
	// per-vertex budgets.
	var pieces []piece
	var caps []float64
	total := 0.0
	if opts.noPeel {
		pieces, caps = residualPieces(ps.sub, make([]bool, ps.n)), uniformCaps(ps.n, delta)
	} else {
		pieces, caps, total = peel(ps.sub, delta)
	}
	for _, pc := range pieces {
		pcaps := make([]float64, len(pc.orig))
		for i, ov := range pc.orig {
			pcaps[i] = caps[ov]
		}
		v, err := lpValue(ctx, pc.sub, pcaps, opts, &stats, sw, pc.orig)
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
