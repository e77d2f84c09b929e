// Package core implements Algorithm 1 of the paper: the ε-node-private
// estimator for the size of a spanning forest (f_sf) and, through
// Equation (1) f_cc = |V| − f_sf, for the number of connected components.
//
// The pipeline is exactly the paper's:
//
//  1. Evaluate the Lipschitz extensions f_Δ (Definition 3.1) on the grid
//     I = {1, 2, 4, …, 2^⌊log₂ Δmax⌋} with Δmax = n.
//  2. Use the Generalized Exponential Mechanism (Algorithm 4) with budget
//     ε/2 and failure probability β to select Δ̂ approximately minimizing
//     err(Δ, G) = |f_Δ(G) − f_sf(G)| + 2Δ/ε.
//  3. Release f_Δ̂(G) + Lap(2Δ̂/ε), spending the remaining ε/2.
//
// Privacy: step 2 is (ε/2)-node-private (Theorem 3.5); step 3 is
// (ε/2)-node-private because f_Δ̂ is Δ̂-Lipschitz (Lemma 3.3) and the noise
// scale is Δ̂/(ε/2); composition (Lemma 2.4) gives ε overall.
//
// Accuracy: Theorem 1.3 — with probability 1−o(1) the error is
// Δ*·Õ(ln ln n / ε), where Δ* is the smallest possible maximum degree of a
// spanning forest of G; Theorem 1.5 rephrases this as DS_fsf(G)·Õ(ln ln n/ε).
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"nodedp/internal/dpnoise"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// Options configures the private estimators. The paper's constants are
// not options: the Δ-grid tops out at Δmax = max(n, 1), GEM's failure
// probability is β = 1/ln ln n clamped to 1/2, and EstimateComponentCount
// spends one fifth of ε on the private vertex count.
type Options struct {
	// Epsilon is the total privacy budget ε > 0. Required.
	Epsilon float64
	// Rand is the noise source. If nil, a crypto/rand-backed source is
	// used; experiments pass a seeded PRNG for reproducibility.
	Rand *rand.Rand
	// ForestLP schedules the extension evaluator's work. No field of it
	// changes a grid value, so plans are keyed by the graph alone, and
	// sessions with different ForestLP settings share them.
	ForestLP forestlp.Options
	// DiscreteRelease replaces the float64 Laplace releases with exact
	// integer mechanisms sampled without floating-point arithmetic
	// (internal/dpnoise): round(f_Δ̂) plus discrete Laplace noise, and for
	// EstimateComponentCount a private vertex count of n plus discrete
	// Laplace noise of scale 1/ε_count. Rounding raises the release
	// sensitivity from Δ̂ to Δ̂+1, so the forest noise scale is 2(Δ̂+1)/ε;
	// every scale is rounded up to a nearby rational. Every released value
	// is then an integer. Use this when float64 noise side channels matter.
	DiscreteRelease bool
}

// withDefaults validates o and fills in the noise source. It also refuses
// a done ctx: a release canceled after the last grid evaluation must still
// abort before any noise is drawn, because a canceled run spends no budget.
func (o Options) withDefaults(ctx context.Context) (Options, error) {
	if o.Epsilon <= 0 || math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return o, fmt.Errorf("core: epsilon %v must be positive and finite", o.Epsilon)
	}
	if err := ctx.Err(); err != nil {
		return o, err
	}
	if o.Rand == nil {
		o.Rand = dpnoise.NewCryptoRand()
	}
	return o, nil
}

// countShare is the share of ε that EstimateComponentCount spends on the
// private vertex count (Equation (1) needs a private |V|). The count's
// noise scale is 1/(ρε) against the forest estimate's ≈ Δ̂·lnln(n)/((1−ρ)ε),
// so a one-fifth share keeps the count term from dominating on small graphs
// while costing little on large ones.
const countShare = 0.2

// deltaMax is the top of the Δ-grid for a graph on n vertices: n, as in
// the paper, and at least 1 so that the grid is never empty.
func deltaMax(n int) float64 { return float64(max(n, 1)) }

// gemBeta is the failure probability of the GEM selection step on a graph
// on n vertices: 1/ln(ln n), the Theorem 1.3 setting, clamped to 1/2.
func gemBeta(n int) float64 {
	if n <= 15 { // ln ln n > 1 ⟺ n > e^e ≈ 15.15
		return 0.5
	}
	return min(1/math.Log(math.Log(float64(n))), 0.5)
}

// DeltaEval records one extension evaluation, for experiment diagnostics.
// These values are data-dependent and must not be released as-is.
//
//privacy:secret — FDelta and Q are exact data-dependent evaluations, pre-noise.
type DeltaEval struct {
	Delta  float64
	FDelta float64
	// Q is the GEM quality q_Δ(G) = |f_Δ(G) − f_sf(G)| + 2Δ/ε.
	Q float64
}

// Result is the outcome of a private estimation.
type Result struct {
	// Value is the private release (an estimate of f_sf or f_cc).
	Value float64
	// Delta is the Δ̂ chosen by GEM.
	Delta float64
	// FDelta is f_Δ̂(G) before noise (diagnostic; not private).
	//privacy:secret — exact f_Δ̂(G), pre-noise.
	FDelta float64
	// NoiseScale is the Laplace scale used in the release step.
	NoiseScale float64
	// NHat is the private vertex-count estimate (component-count mode
	// only; zero otherwise).
	NHat float64
	// Evaluations are the per-Δ diagnostics (not private).
	Evaluations []DeltaEval
	// Stats aggregates the extension evaluator's work.
	Stats forestlp.Stats

	// countScale is the noise scale of the private vertex count NHat, or
	// zero when n is not released privately.
	countScale float64
}

// NoiseInterval returns the half-width t such that the noise added in the
// release lies in [−t, t] with probability at least 1−beta. A
// spanning-forest or known-n release adds one Laplace term of scale
// NoiseScale, so t = NoiseScale·ln(1/beta) (Lemma 2.3:
// Pr[|Lap(b)| ≥ b·ln(1/beta)] = beta). A component count with a private
// vertex count adds that count's noise too; each term leaves its own
// b·ln(2/beta) with probability beta/2, so t = (NoiseScale + count
// scale)·ln(2/beta). It quantifies only the injected noise — the
// extension's approximation error |f_Δ̂ − f_sf| is a separate,
// data-dependent quantity bounded by Theorem 1.3. The interval is a
// post-processing of released values and safe to publish.
func (r Result) NoiseInterval(beta float64) (float64, error) {
	if beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("core: confidence beta %v must be in (0,1)", beta)
	}
	if r.NoiseScale <= 0 {
		return 0, fmt.Errorf("core: result carries no noise scale")
	}
	if r.countScale > 0 {
		return (r.NoiseScale + r.countScale) * math.Log(2/beta), nil
	}
	return r.NoiseScale * math.Log(1/beta), nil
}

// EstimateSpanningForestSize runs Algorithm 1: an ε-node-private estimate
// of f_sf(G).
func EstimateSpanningForestSize(g *graph.Graph, opts Options) (Result, error) {
	return EstimateSpanningForestSizeCtx(context.Background(), g, opts)
}

// EstimateSpanningForestSizeCtx is EstimateSpanningForestSize with
// cancelation and deadline support: the extension evaluations — the only
// long-running part of Algorithm 1 — abort promptly with ctx.Err() when
// ctx is done. A canceled run releases nothing and spends no budget.
func EstimateSpanningForestSizeCtx(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	ge, opts, err := oneShotGrid(ctx, g, opts)
	if err != nil {
		return Result{}, err
	}
	return EstimateSpanningForestSizeFromGrid(ctx, ge, opts)
}

// oneShotGrid applies the defaults and plans g uncached for a one-shot
// estimator, which then releases through its FromGrid twin.
func oneShotGrid(ctx context.Context, g *graph.Graph, opts Options) (*GridEval, Options, error) {
	opts, err := opts.withDefaults(ctx)
	if err != nil {
		return nil, opts, err
	}
	ge, _, err := (*PlanCache)(nil).GridEval(ctx, g, opts)
	return ge, opts, err
}

// GridEval is the deterministic, expensive half of Algorithm 1: the values
// f_Δ(G) over the whole GEM grid, evaluated once on the sharded parallel
// engine, together with the exact f_sf(G) they are scored against. A
// GridEval is ε-independent (ε only enters the GEM qualities and the noise,
// both computed per release), immutable, and safe to share between any
// number of concurrent sessions — this is what the PlanCache stores and
// what the serving layer in internal/serve fans queries onto.
//
//privacy:secret — holds the exact f_Δ evaluations and f_sf; snapshots of it must be protected like the graph itself, and none of it may reach the wire.
type GridEval struct {
	n           int
	m           int
	fingerprint graph.Fingerprint
	grid        []float64
	fdeltas     []float64
	fsf         float64
	stats       forestlp.Stats
}

// N returns the vertex count of the evaluated graph.
func (ge *GridEval) N() int { return ge.n }

// Cost is the deterministic grid-evaluation cost estimate used by the
// PlanCache's weight-based admission: (n + m + 1) CSR units per grid point,
// the size of the work each evaluation walks. It is a relative weight, not
// a wall-clock measurement, so identical graphs always weigh the same.
func (ge *GridEval) Cost() int64 {
	return int64(ge.n+ge.m+1) * int64(len(ge.grid))
}

// Fingerprint returns the canonical fingerprint of the evaluated graph.
func (ge *GridEval) Fingerprint() graph.Fingerprint { return ge.fingerprint }

// SpanningForestSize returns the exact (non-private) f_sf of the evaluated
// graph.
func (ge *GridEval) SpanningForestSize() float64 { return ge.fsf }

// Stats aggregates the extension evaluator's work across the grid.
func (ge *GridEval) Stats() forestlp.Stats { return ge.stats }

// release performs the random half of Algorithm 1 on ge with budget eps
// (for a component count, the forest share of the caller's ε): it scores
// the GEM qualities q_Δ(G) = |f_Δ(G) − f_sf(G)| + Δ/(ε/2) (Algorithm 4
// Step 4, with GEM's own budget ε/2), selects Δ̂ by GEM at ε/2, and
// releases f_Δ̂(G) with noise of scale Δ̂/(ε/2). Scoring is O(grid) float
// ops, which is why one GridEval serves queries with any ε. The one-shot
// estimators and every session query release here, through the
// Estimate*FromGrid functions, which is what makes a seeded session query
// bit-for-bit identical to the equivalent one-shot call.
func release(ge *GridEval, opts Options, eps float64) (Result, error) {
	epsHalf := eps / 2
	qs := make([]float64, len(ge.grid))
	res := Result{Evaluations: make([]DeltaEval, len(ge.grid)), Stats: ge.stats}
	for i, d := range ge.grid {
		qs[i] = math.Abs(ge.fdeltas[i]-ge.fsf) + d/epsHalf
		res.Evaluations[i] = DeltaEval{Delta: d, FDelta: ge.fdeltas[i], Q: qs[i]}
	}
	sel, err := mechanism.GEM(opts.Rand, ge.grid, qs, epsHalf, gemBeta(ge.n))
	if err != nil {
		return res, fmt.Errorf("core: GEM selection: %w", err)
	}
	res.Delta = sel.Delta
	res.FDelta = ge.fdeltas[sel.Index]
	res.NoiseScale = sel.Delta / epsHalf

	if opts.DiscreteRelease {
		// Integer mechanism: rounding raises sensitivity to Δ̂+1.
		res.NoiseScale = (sel.Delta + 1) / epsHalf
		noise, err := dpnoise.DiscreteLaplaceScaled(opts.Rand, res.NoiseScale)
		if err != nil {
			return res, fmt.Errorf("core: discrete release: %w", err)
		}
		res.Value = math.Round(res.FDelta) + float64(noise)
		return res, nil
	}

	res.Value, err = mechanism.LaplaceRelease(opts.Rand, res.FDelta, sel.Delta, epsHalf)
	if err != nil {
		return res, fmt.Errorf("core: release: %w", err)
	}
	return res, nil
}

// EstimateSpanningForestSizeFromGrid is EstimateSpanningForestSizeCtx with
// the deterministic half replaced by a precomputed (possibly cached) grid
// evaluation: only GEM selection and the Laplace release run here. With the
// same options and noise source, the release is bit-for-bit identical to
// the one-shot call on the same graph.
func EstimateSpanningForestSizeFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ctx)
	if err != nil {
		return Result{}, err
	}
	return release(ge, opts, opts.Epsilon)
}

// EstimateComponentCountFromGrid is EstimateComponentCountCtx on a
// precomputed grid evaluation; see EstimateSpanningForestSizeFromGrid. It
// splits the budget between the private vertex count and the forest
// estimate and draws the count noise first.
func EstimateComponentCountFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ctx)
	if err != nil {
		return Result{}, err
	}
	epsCount := opts.Epsilon * countShare
	var nHat float64
	if opts.DiscreteRelease {
		// The count has sensitivity 1 and is an integer already.
		noise, err := dpnoise.DiscreteLaplaceScaled(opts.Rand, 1/epsCount)
		if err != nil {
			return Result{}, fmt.Errorf("core: discrete vertex count: %w", err)
		}
		nHat = float64(int64(ge.n) + noise)
	} else {
		nHat, err = mechanism.LaplaceRelease(opts.Rand, float64(ge.n), 1, epsCount)
		if err != nil {
			return Result{}, err
		}
	}
	res, err := release(ge, opts, opts.Epsilon-epsCount)
	if err != nil {
		return res, err
	}
	res.NHat = nHat
	res.countScale = 1 / epsCount
	res.Value = nHat - res.Value
	return res, nil
}

// EstimateComponentCountKnownNFromGrid is EstimateComponentCountKnownNCtx
// on a precomputed grid evaluation; see EstimateSpanningForestSizeFromGrid.
func EstimateComponentCountKnownNFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ctx)
	if err != nil {
		return Result{}, err
	}
	res, err := release(ge, opts, opts.Epsilon)
	if err != nil {
		return res, err
	}
	res.NHat = float64(ge.n)
	res.Value = float64(ge.n) - res.Value
	return res, nil
}

// EstimateComponentCount releases an ε-node-private estimate of f_cc(G)
// via Equation (1): f_cc = |V| − f_sf. A fixed share of ε (countShare,
// one fifth) buys the private vertex count (sensitivity 1 under
// node-privacy); the rest runs Algorithm 1 for f_sf.
func EstimateComponentCount(g *graph.Graph, opts Options) (Result, error) {
	return EstimateComponentCountCtx(context.Background(), g, opts)
}

// EstimateComponentCountCtx is EstimateComponentCount with cancelation and
// deadline support. The noisy vertex count is drawn only after the
// extension evaluations succeed, so a canceled run spends no budget.
func EstimateComponentCountCtx(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	ge, opts, err := oneShotGrid(ctx, g, opts)
	if err != nil {
		return Result{}, err
	}
	return EstimateComponentCountFromGrid(ctx, ge, opts)
}

// EstimateComponentCountKnownN is EstimateComponentCount for settings where
// the vertex count is public information (it is then subtracted exactly and
// the entire ε goes to f_sf). NOTE: under strict node-DP the vertex count
// is itself sensitive; use this variant only when n is released through
// some other channel.
func EstimateComponentCountKnownN(g *graph.Graph, opts Options) (Result, error) {
	return EstimateComponentCountKnownNCtx(context.Background(), g, opts)
}

// EstimateComponentCountKnownNCtx is EstimateComponentCountKnownN with
// cancelation and deadline support.
func EstimateComponentCountKnownNCtx(ctx context.Context, g *graph.Graph, opts Options) (Result, error) {
	ge, opts, err := oneShotGrid(ctx, g, opts)
	if err != nil {
		return Result{}, err
	}
	return EstimateComponentCountKnownNFromGrid(ctx, ge, opts)
}
