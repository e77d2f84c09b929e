// Package nodedp is a production-oriented Go implementation of
//
//	Kalemaj, Raskhodnikova, Smith, Tsourakakis.
//	"Node-Differentially Private Estimation of the Number of Connected
//	Components." PODS 2023.
//
// It releases the number of connected components f_cc(G) (equivalently, the
// spanning-forest size f_sf(G) = |V| − f_cc(G)) of a sensitive graph under
// ε-node-differential privacy: the output distribution is nearly unchanged
// when any single vertex, with all its incident edges, is added or removed
// (Definition 1.2 of the paper).
//
// The estimator is the paper's Algorithm 1: a family of polynomial-time
// Lipschitz extensions f_Δ of f_sf, built from the Δ-bounded forest
// polytope (Definition 3.1) and evaluated by a cutting-plane LP with a
// Padberg–Wolsey separation oracle; the Generalized Exponential Mechanism
// selects the Lipschitz parameter Δ̂; and a Laplace release spends the rest
// of the budget. The additive error is Δ*·Õ(ln ln n / ε) with probability
// 1 − o(1), where Δ* is the smallest possible maximum degree of a spanning
// forest of G (Theorem 1.3) — small on sparse, geometric and bounded-
// degree-forest graphs even when the maximum degree of G is huge.
//
// # Quick start
//
//	g := nodedp.NewGraph(5)
//	g.AddEdge(0, 1)
//	g.AddEdge(2, 3)
//	res, err := nodedp.EstimateComponentCount(g, nodedp.Options{Epsilon: 1})
//	// res.Value ≈ 3 (components {0,1}, {2,3}, {4}) + calibrated noise
//
// For repeated releases on one graph, Open a Session: the expensive
// Δ-grid of LP evaluations is paid once (or fetched from a fingerprint-
// keyed PlanCache) and every query spends its own ε against a total budget
// enforced by the session's composition accountant — sequential
// composition by default, or (ε, δ) advanced composition
// (CompositionAdvanced), which admits many more small queries at equal
// ε_total. The one-shot Estimate* functions plan the graph and release
// once through the same code path.
//
// To serve queries over the network instead of in process, run the
// bundled daemon (`ccdp daemon`): it exposes sessions over HTTP/JSON
// (internal/httpapi) with a multi-tenant session registry, per-session
// accountant selection, load-shedding admission control, and /metrics —
// a seeded query over HTTP releases bit-for-bit the value of the
// equivalent in-process Session query.
//
// Estimates returned by this package are node-private releases; all other
// exported analysis helpers (MaxInducedStar, LipschitzExtensionValue, …)
// compute exact data-dependent quantities and are NOT private on their own.
package nodedp

import (
	"context"
	"io"
	"math"
	"math/rand/v2"

	"nodedp/internal/baseline"
	"nodedp/internal/core"
	"nodedp/internal/downsens"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/privacy"
	"nodedp/internal/serve"
	"nodedp/internal/spanning"
)

// Graph is an undirected simple graph on vertices 0..N-1. See NewGraph and
// GraphFromEdges.
type Graph = graph.Graph

// Edge is an undirected edge with normalized endpoints (U < V).
type Edge = graph.Edge

// NewEdge returns the normalized edge {min(u,v), max(u,v)}.
func NewEdge(u, v int) Edge { return graph.NewEdge(u, v) }

// NewGraph returns an empty graph on n isolated vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a graph on n vertices with the given edge list.
// The list must already be canonical: a self-loop or duplicate edge is an
// error. Use GraphFromEdgesCanonical for noisy inputs.
func GraphFromEdges(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// GraphFromEdgesCanonical builds a graph on n vertices from an arbitrary
// edge list, canonicalizing first: endpoints normalized, self-loops
// dropped, duplicates collapsed. Any two inputs describing the same simple
// graph produce Fingerprint-identical results — the rule every network
// ingress (HTTP upload, PATCH delta) applies, exposed for library callers
// holding raw edge data.
func GraphFromEdgesCanonical(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdgesCanonical(n, edges)
}

// CanonicalizeEdges returns the canonical form of an arbitrary edge list
// over vertices 0..n-1: endpoints normalized so U < V, self-loops dropped,
// duplicates collapsed, sorted. It errors only on an out-of-range
// endpoint.
func CanonicalizeEdges(n int, edges []Edge) ([]Edge, error) {
	return graph.Canonicalize(n, edges)
}

// ReadGraph parses the package's edge-list exchange format ("n <count>"
// header plus one "u v" pair per line; '#' comments allowed). Parsing is
// strict: a malformed number, or an endpoint outside the header's count,
// is an error.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r, math.MaxInt) }

// WriteGraph writes g in the edge-list exchange format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Options configures the private estimators; see the fields of
// internal/core.Options. Epsilon is required; Rand defaults to
// crypto-grade noise. The paper's constants are not options: the Δ-grid
// runs up to Δmax = n, GEM's failure probability is β = 1/ln ln n
// (clamped to 1/2), and EstimateComponentCount spends one fifth of ε on
// the private vertex count. Options.ForestLP.Workers sets how many
// per-component LPs the evaluation engine solves concurrently
// (0 = runtime.GOMAXPROCS), and also how many separation-oracle max-flow
// calls run concurrently inside a single component, capped at the
// oracle's fixed wave width of 16 — the lever for graphs dominated by one
// giant component; the released value is identical for every setting.
// The engine's tuning is not configurable either, so a plan depends only
// on the graph. Grid sweeps warm-start adjacent Δ evaluations (cut pool,
// simplex bases, and standing solvers slid across the grid); where the
// cutting planes converge, that state moves only work counters, never
// values. DiscreteRelease makes every released value an integer, the
// private vertex count included.
type Options = core.Options

// Result is the outcome of a private estimation, including the selected
// Lipschitz parameter Δ̂ and per-Δ diagnostics.
type Result = core.Result

// EstimateSpanningForestSize releases an ε-node-private estimate of
// f_sf(G), the number of edges in a spanning forest of G (Algorithm 1,
// Theorem 1.3).
func EstimateSpanningForestSize(g *Graph, opts Options) (Result, error) {
	return core.EstimateSpanningForestSize(g, opts)
}

// EstimateSpanningForestSizeCtx is EstimateSpanningForestSize with
// cancelation and deadline support: the extension evaluations (the
// long-running part of Algorithm 1) abort promptly with ctx.Err() when ctx
// is done, and a canceled run spends no privacy budget.
func EstimateSpanningForestSizeCtx(ctx context.Context, g *Graph, opts Options) (Result, error) {
	return core.EstimateSpanningForestSizeCtx(ctx, g, opts)
}

// EstimateComponentCount releases an ε-node-private estimate of f_cc(G),
// the number of connected components, via f_cc = |V| − f_sf (Equation (1));
// a fixed share of ε, one fifth, buys the private vertex count.
func EstimateComponentCount(g *Graph, opts Options) (Result, error) {
	return core.EstimateComponentCount(g, opts)
}

// EstimateComponentCountCtx is EstimateComponentCount with cancelation and
// deadline support.
func EstimateComponentCountCtx(ctx context.Context, g *Graph, opts Options) (Result, error) {
	return core.EstimateComponentCountCtx(ctx, g, opts)
}

// EstimateComponentCountKnownN is EstimateComponentCount for settings where
// the vertex count is public; the entire budget then goes to f_sf.
func EstimateComponentCountKnownN(g *Graph, opts Options) (Result, error) {
	return core.EstimateComponentCountKnownN(g, opts)
}

// EstimateComponentCountKnownNCtx is EstimateComponentCountKnownN with
// cancelation and deadline support.
func EstimateComponentCountKnownNCtx(ctx context.Context, g *Graph, opts Options) (Result, error) {
	return core.EstimateComponentCountKnownNCtx(ctx, g, opts)
}

// Session is a long-lived serving handle on one sensitive graph: Open pays
// the deterministic, expensive half of Algorithm 1 once (CSR snapshot,
// component shard plan, Δ-grid of extension evaluations — reusing a cached
// plan when an identical graph was served before), and every subsequent
// query pays only GEM selection plus Laplace noise and its own ε, debited
// from the session's total budget by a thread-safe sequential-composition
// accountant. All methods are safe for concurrent use.
//
//	sess, err := nodedp.Open(ctx, g, nodedp.SessionOptions{TotalBudget: 4})
//	res, err := sess.ComponentCount(ctx, nodedp.QueryOptions{Epsilon: 0.5})
//	res, err = sess.SpanningForestSize(ctx, nodedp.QueryOptions{Epsilon: 0.5})
//	sess.Remaining() // 3.0
//
// Queries that would overdraw the budget fail with ErrBudgetExhausted and
// spend nothing. A query with an explicit Seed releases bit-for-bit the
// value of the equivalent one-shot Estimate*Ctx call with the same seed
// (testing only — reproducible releases are not private).
//
// Sessions serve live graphs: ApplyDelta mutates the served graph in
// place (edge adds and removes, idempotent set semantics) and re-plans it
// through the plan cache's component-keyed sub-plan layer, reusing every
// untouched component's grid values verbatim. Queries racing a delta see
// the pre- or post-delta snapshot, never a torn one, and the post-delta
// session is bit-identical to a cold open of the mutated graph.
type Session = serve.Session

// SessionOptions configures Open; TotalBudget is required, everything else
// defaults as in Options, and the paper's constants are fixed as there.
// Composition selects the budget accountant (sequential composition by
// default; CompositionAdvanced with a Delta admits many more small
// queries at equal ε_total), and Accountant injects a caller-owned ledger
// outright — e.g. one shared by several sessions over the same sensitive
// graph.
type SessionOptions = serve.SessionOptions

// Composition selects a session's budget accountant; see SessionOptions.
type Composition = privacy.Composition

const (
	// CompositionSequential is pure-ε sequential composition (Lemma 2.4):
	// queries are admitted while Σε_i ≤ TotalBudget. The default.
	CompositionSequential = privacy.Sequential
	// CompositionAdvanced is (ε, δ) advanced composition (heterogeneous
	// Dwork–Rothblum–Vadhan): queries are admitted while the
	// √(2 ln(1/δ)·Σε_i²) + Σε_i(e^{ε_i}−1) bound — or Σε_i, whichever is
	// smaller — stays within TotalBudget, with failure probability
	// SessionOptions.Delta. For many small queries the admitted count
	// grows like (ε_total/ε₀)² instead of ε_total/ε₀.
	CompositionAdvanced = privacy.Advanced
)

// Accountant is the pluggable composition ledger interface behind
// sessions; NewSequentialAccountant and NewAdvancedAccountant construct
// the built-in implementations for SessionOptions.Accountant injection.
type Accountant = privacy.Accountant

// NewSequentialAccountant returns a pure-ε sequential-composition ledger.
func NewSequentialAccountant(total float64) (Accountant, error) {
	return privacy.NewSequential(total)
}

// NewAdvancedAccountant returns an (ε_total, δ) advanced-composition
// ledger.
func NewAdvancedAccountant(total, delta float64) (Accountant, error) {
	return privacy.NewAdvanced(total, delta)
}

// QueryOptions configures one Session query: its ε (required), the
// component-count Mode, and an optional reproducibility Seed.
type QueryOptions = serve.QueryOptions

// SessionStats is the snapshot returned by Session.Stats: plans built
// (exactly 1 per distinct graph; 0 on a plan-cache hit), query admission
// counters, and budget state.
type SessionStats = serve.Stats

// QueryMode selects how a component-count query treats the vertex count.
type QueryMode = serve.Mode

const (
	// ModePrivateN buys a private vertex count out of the query ε
	// (the default; the EstimateComponentCount behavior).
	ModePrivateN = serve.PrivateN
	// ModeKnownN treats the vertex count as public
	// (the EstimateComponentCountKnownN behavior).
	ModeKnownN = serve.KnownN
)

// ErrBudgetExhausted is returned by Session queries that would overdraw the
// total budget; the failing query spends nothing. Test with errors.Is.
var ErrBudgetExhausted = serve.ErrBudgetExhausted

// Open snapshots g and starts a serving session with the given total
// privacy budget. Open itself spends no budget; a canceled ctx aborts the
// plan construction promptly.
func Open(ctx context.Context, g *Graph, opts SessionOptions) (*Session, error) {
	return serve.Open(ctx, g, opts)
}

// DeltaResult reports what one Session.ApplyDelta did: applied edge
// counts, the post-delta fingerprint, component bookkeeping (merges,
// touched components), and the component-level plan-reuse counters. A
// session mutated by ApplyDelta releases bit-identically to a session
// cold-opened on the mutated graph under the same options.
type DeltaResult = serve.DeltaResult

// BatchRequest is one query of a Session.Do batch, with per-request
// ε/op/mode/seed.
type BatchRequest = serve.Request

// BatchResponse is the outcome of one BatchRequest, at the same index.
type BatchResponse = serve.Response

// BatchOp selects what a BatchRequest estimates.
type BatchOp = serve.Op

const (
	// OpComponentCount estimates f_cc (honoring the request's Mode).
	OpComponentCount = serve.OpComponentCount
	// OpSpanningForestSize estimates f_sf.
	OpSpanningForestSize = serve.OpSpanningForestSize
)

// PlanCache is a bounded, thread-safe LRU cache of the Δ-grid evaluations,
// keyed by canonical graph fingerprint: no option changes a grid value.
// Hand the same cache to many Open calls (SessionOptions.Cache) and
// identical graphs — even ones re-read from disk or built in a different
// edge order — skip planning entirely; any one-edge difference misses.
// A mutated graph's stale plan is never hit again and ages out under the
// cache's entry-count or weight bound.
//
// A cache can persist across process restarts: SaveFile snapshots every
// entry to a versioned binary file (atomic write-then-rename), and
// LoadFile merges a snapshot back, skipping corrupt or unknown-version
// entries with typed errors instead of failing. A seeded query answered
// from a reloaded plan is bit-identical to the same query from the cache
// that was saved. Snapshot files hold exact data-dependent values —
// protect them like the graphs themselves.
type PlanCache = core.PlanCache

// PlanCacheStats reports a PlanCache's hit/miss/eviction counters and the
// snapshot save/load counters.
type PlanCacheStats = core.CacheStats

// PlanCacheLoadReport describes what a PlanCache.Load/LoadFile pass merged
// in and what it had to skip.
type PlanCacheLoadReport = core.LoadReport

// NewPlanCache returns an empty plan cache bounded to capacity entries
// (a small default if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache { return core.NewPlanCache(capacity) }

// Fingerprint is the canonical 128-bit digest of a graph's vertex count
// and edge set, independent of construction order; Graph.Fingerprint
// computes it. It keys the PlanCache and identifies sessions.
type Fingerprint = graph.Fingerprint

// LipschitzOptions schedules LipschitzExtensionValue's work: Workers, which
// never changes the value.
type LipschitzOptions = forestlp.Options

// LipschitzStats reports the work done by one extension evaluation,
// including the parametric-engine depth counters (Refactorizations,
// ParametricSlides, ParametricCheapSolves, IncrementalFallbacks). Those
// count standing solvers, which only Δ-grid sweeps keep, so they are zero
// for a single-Δ evaluation such as LipschitzExtensionValue.
type LipschitzStats = forestlp.Stats

// IncrementalCheapPivots is the pivot budget under which a parametric
// grid-point solve counts as LipschitzStats.ParametricCheapSolves — the
// near-zero-pivot outcome the basis-sliding Δ sweep exists for.
const IncrementalCheapPivots = forestlp.IncrementalCheapPivots

// LipschitzExtensionValue computes f_Δ(G), the paper's Lipschitz extension
// of the spanning-forest size (Definition 3.1), up to LP tolerance when
// every LP piece converges. When LipschitzStats.StalledPieces > 0 the
// cutting planes stalled and the value is only an upper bound on f_Δ, by
// at most LipschitzStats.StallGap, so it need not be Δ-Lipschitz. The
// value is data-dependent and NOT private by itself; feed it to your own
// Laplace release (scale Δ/ε) only when no piece stalled — as
// FixedDeltaComponentCountKnownN does — or use EstimateSpanningForestSize
// for the full algorithm.
//
// Independent per-component LPs run concurrently when opts.Workers allows
// (0 defaults to runtime.GOMAXPROCS); the result is bit-for-bit identical
// for every worker count.
func LipschitzExtensionValue(g *Graph, delta float64, opts LipschitzOptions) (float64, LipschitzStats, error) {
	return forestlp.Value(g, delta, opts)
}

// LipschitzExtensionValueCtx is LipschitzExtensionValue with cancelation
// and deadline support.
func LipschitzExtensionValueCtx(ctx context.Context, g *Graph, delta float64, opts LipschitzOptions) (float64, LipschitzStats, error) {
	return forestlp.ValueCtx(ctx, g, delta, opts)
}

// InducedStar describes an induced star: Center adjacent to every leaf,
// leaves pairwise non-adjacent.
type InducedStar = downsens.Star

// MaxInducedStar computes s(G), the size of the largest induced star, which
// equals the down-sensitivity of f_sf (Lemma 1.7). budget caps the exact
// search (0 = default). NOT private.
func MaxInducedStar(g *Graph, budget int) (InducedStar, error) {
	return downsens.MaxInducedStar(g, budget)
}

// SpanningForestWithRepair runs the constructive proof of Lemma 1.8
// (Algorithm 3): given Δ ≥ 1 it returns a spanning forest of maximum degree
// ≤ Δ, or an induced Δ-star witnessing that s(G) ≥ Δ. Exactly one result is
// non-nil.
func SpanningForestWithRepair(g *Graph, delta int) ([]Edge, *RepairWitness, error) {
	return spanning.Repair(g, delta)
}

// RepairWitness is the induced-star witness returned when Algorithm 3 is
// blocked.
type RepairWitness = spanning.Star

// SpanningForestRepairTrace is SpanningForestWithRepair with a step logger:
// every insertion and local-repair swap (Figure 1 of the paper) is reported
// to trace.
func SpanningForestRepairTrace(g *Graph, delta int, trace func(step string)) ([]Edge, *RepairWitness, error) {
	return spanning.RepairWithTrace(g, delta, trace)
}

// LowDegreeSpanningForest returns a spanning forest of heuristically
// minimized maximum degree together with that degree — an upper bound on
// Δ*, the accuracy parameter of Theorem 1.3. NOT private.
func LowDegreeSpanningForest(g *Graph) ([]Edge, int) {
	return spanning.LowDegreeSpanningForest(g)
}

// Baselines: comparison estimators used by the experiment suite. See
// internal/baseline for the privacy caveats of each (EdgeDP is only
// edge-private; Truncation is a heuristic without a worst-case node-DP
// guarantee).

// EdgeDPComponentCount releases f_cc + Lap(1/ε): ε-EDGE-private only.
func EdgeDPComponentCount(rng *rand.Rand, g *Graph, eps float64) (float64, error) {
	return baseline.EdgeDPComponentCount(rng, g, eps)
}

// NaiveNodeDPComponentCount releases f_cc + Lap(n/ε): node-private but with
// worst-case global-sensitivity noise.
func NaiveNodeDPComponentCount(rng *rand.Rand, g *Graph, eps float64) (float64, error) {
	return baseline.NaiveNodeDPComponentCount(rng, g, eps)
}

// FixedDeltaComponentCountKnownN releases n − (f_Δ(G) + Lap(Δ/ε)) for a
// caller-chosen Lipschitz parameter Δ: the paper's mechanism without the
// GEM selection step. ε-node-private for the f_sf part (n is treated as
// public). Useful as an ablation and as the rigorous "calibrate to max
// degree" baseline (Δ = MaxDegree()). It returns an error, releasing
// nothing, when the evaluation of f_Δ stalled on an LP piece.
func FixedDeltaComponentCountKnownN(rng *rand.Rand, g *Graph, delta, eps float64, opts LipschitzOptions) (float64, error) {
	return baseline.FixedDeltaComponentCountKnownN(rng, g, delta, eps, opts)
}
