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
	"sync/atomic"

	"nodedp/internal/dpnoise"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// Options configures the private estimators.
type Options struct {
	// Epsilon is the total privacy budget ε > 0. Required.
	Epsilon float64
	// Beta is the failure probability of the GEM selection step. If zero,
	// the paper's choice 1/ln(ln n) is used (clamped into (0, 1/2]).
	Beta float64
	// Rand is the noise source. If nil, a crypto/rand-backed source is
	// used; experiments pass a seeded PRNG for reproducibility.
	Rand *rand.Rand
	// DeltaMax overrides the top of the Δ grid (default: n, as in the
	// paper; values below 1 are rejected).
	DeltaMax float64
	// ForestLP configures the extension evaluator.
	ForestLP forestlp.Options
	// CountBudgetFraction is the share of ε spent on releasing the vertex
	// count when estimating f_cc (Equation (1) needs a private |V|).
	// Default 0.2: the count's noise scale is 1/(ρε) against the forest
	// estimate's ≈ Δ̂·lnln(n)/((1−ρ)ε), so a one-fifth share keeps the
	// count term from dominating on small graphs while costing little on
	// large ones. Ignored by EstimateSpanningForestSize and by
	// EstimateComponentCountKnownN.
	CountBudgetFraction float64
	// DiscreteRelease replaces the float64 Laplace release with an exact
	// integer mechanism: round(f_Δ̂) plus discrete Laplace noise sampled
	// without floating-point arithmetic (internal/dpnoise). Rounding
	// raises the release sensitivity from Δ̂ to Δ̂+1, so the noise scale is
	// 2(Δ̂+1)/ε (rounded up to a nearby rational); the output lattice is
	// the integers. Use this when float64 noise side channels matter.
	DiscreteRelease bool
}

func (o Options) withDefaults(n int) (Options, error) {
	if o.Epsilon <= 0 || math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return o, fmt.Errorf("core: epsilon %v must be positive and finite", o.Epsilon)
	}
	if o.Beta == 0 {
		// β = 1/ln(ln n) (the Theorem 1.3 setting), clamped to (0, 1/2].
		b := 0.5
		if n > 15 { // ln ln n > 1 ⟺ n > e^e ≈ 15.15
			b = 1 / math.Log(math.Log(float64(n)))
		}
		if b > 0.5 {
			b = 0.5
		}
		o.Beta = b
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		return o, fmt.Errorf("core: beta %v must be in (0,1)", o.Beta)
	}
	if o.Rand == nil {
		o.Rand = dpnoise.NewCryptoRand()
	}
	if o.DeltaMax == 0 {
		o.DeltaMax = float64(n)
		if o.DeltaMax < 1 {
			o.DeltaMax = 1
		}
	}
	if o.DeltaMax < 1 {
		return o, fmt.Errorf("core: deltaMax %v must be ≥ 1", o.DeltaMax)
	}
	if o.CountBudgetFraction == 0 {
		o.CountBudgetFraction = 0.2
	}
	if o.CountBudgetFraction <= 0 || o.CountBudgetFraction >= 1 {
		return o, fmt.Errorf("core: countBudgetFraction %v must be in (0,1)", o.CountBudgetFraction)
	}
	return o, nil
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
}

// NoiseInterval returns the half-width t such that the Laplace noise added
// in the release step lies in [−t, t] with probability 1−beta (Lemma 2.3:
// Pr[|Lap(b)| ≥ b·ln(1/beta)] = beta). It quantifies only the injected
// noise — the extension's approximation error |f_Δ̂ − f_sf| is a separate,
// data-dependent quantity bounded by Theorem 1.3. The interval is a
// post-processing of released values and safe to publish.
func (r Result) NoiseInterval(beta float64) (float64, error) {
	if beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("core: confidence beta %v must be in (0,1)", beta)
	}
	if r.NoiseScale <= 0 {
		return 0, fmt.Errorf("core: result carries no noise scale")
	}
	width := r.NoiseScale * math.Log(1/beta)
	// Component-count mode adds the vertex-count noise; its scale is
	// recoverable from NHat only if the caller tracked it, so we expose
	// the forest-release interval and document the composition.
	return width, nil
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

// oneShotGrid applies the defaults and evaluates g's grid for a one-shot
// estimator, which never consults a cache and so skips the fingerprint;
// each estimator then releases through its FromGrid twin.
func oneShotGrid(ctx context.Context, g *graph.Graph, opts Options) (*GridEval, Options, error) {
	opts, err := opts.withDefaults(g.N())
	if err != nil {
		return nil, opts, err
	}
	ge, err := evaluateGrid(ctx, graph.NewCSR(g), graph.Fingerprint{}, opts, nil)
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
	deltaMax    float64
	optsDigest  string
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
// Evaluations produced by EvaluateGrid or the PlanCache always carry one;
// the one-shot estimators skip the hashing pass (they never consult a
// cache) and leave it zero.
func (ge *GridEval) Fingerprint() graph.Fingerprint { return ge.fingerprint }

// SpanningForestSize returns the exact (non-private) f_sf of the evaluated
// graph.
func (ge *GridEval) SpanningForestSize() float64 { return ge.fsf }

// Stats aggregates the extension evaluator's work across the grid.
func (ge *GridEval) Stats() forestlp.Stats { return ge.stats }

// EvaluateGrid runs the deterministic half of Algorithm 1 for g: one CSR
// snapshot, one shard plan, and one extension evaluation per grid point.
// The result is independent of Options.Epsilon (which may be left zero
// here); every other plan-relevant option — DeltaMax and the ForestLP
// configuration — is baked into the returned evaluation.
func EvaluateGrid(ctx context.Context, g *graph.Graph, opts Options) (*GridEval, error) {
	if opts.Epsilon == 0 {
		opts.Epsilon = 1 // ε does not enter the grid values; see doc comment
	}
	opts, err := opts.withDefaults(g.N())
	if err != nil {
		return nil, err
	}
	csr := graph.NewCSR(g)
	return evaluateGrid(ctx, csr, csr.Fingerprint(), opts, nil)
}

// Prepared caches the deterministic, expensive part of Algorithm 1 — the
// extension evaluations f_Δ(G) over the GEM grid — so that repeated
// releases on the same graph skip the LP work. The random steps (GEM
// selection and the Laplace release) happen per call to Release.
//
// Composition accounting is the caller's job at this layer: Epsilon,
// Releases, and SpentBudget expose what has been spent so far, and the
// session API in internal/serve enforces a total budget on top. Release and
// the introspection methods are safe for concurrent use only when the
// underlying noise source is (the default crypto source is not; guard a
// shared *rand.Rand yourself or use a Session).
type Prepared struct {
	ge          *GridEval
	qs          []float64
	evaluations []DeltaEval
	eps         float64
	beta        float64
	rand        *rand.Rand
	discrete    bool
	releases    atomic.Int64
}

// Evaluations returns the cached per-Δ diagnostics (not private).
func (p *Prepared) Evaluations() []DeltaEval {
	return append([]DeltaEval(nil), p.evaluations...)
}

// Epsilon returns ε, the privacy budget each Release spends.
func (p *Prepared) Epsilon() float64 { return p.eps }

// Releases returns how many Release calls have run so far. Calls that
// returned an error still count: noise may have been drawn before the
// failure, and budget accounting must stay conservative.
func (p *Prepared) Releases() int { return int(p.releases.Load()) }

// SpentBudget returns Releases()·Epsilon(), the total privacy cost of this
// estimator so far under sequential composition (Lemma 2.4). Callers with a
// hard budget should prefer the Session API, which enforces one.
func (p *Prepared) SpentBudget() float64 { return float64(p.Releases()) * p.eps }

// PrepareSpanningForest evaluates the extension family once for g under the
// given options.
func PrepareSpanningForest(g *graph.Graph, opts Options) (*Prepared, error) {
	return PrepareSpanningForestCtx(context.Background(), g, opts)
}

// PrepareSpanningForestCtx is PrepareSpanningForest with cancelation and
// deadline support.
func PrepareSpanningForestCtx(ctx context.Context, g *graph.Graph, opts Options) (*Prepared, error) {
	ge, opts, err := oneShotGrid(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	return newPrepared(ge, opts, opts.Epsilon), nil
}

// newPrepared performs the ε-dependent scoring of a grid evaluation: the
// GEM qualities q_Δ(G) = |f_Δ(G) − f_sf(G)| + Δ/(ε/2) (Algorithm 4 Step 4,
// with GEM's own budget ε/2). It is cheap — O(grid) float ops — which is
// why one cached GridEval can serve queries with different ε.
func newPrepared(ge *GridEval, opts Options, eps float64) *Prepared {
	epsHalf := eps / 2
	p := &Prepared{
		ge:          ge,
		qs:          make([]float64, len(ge.grid)),
		evaluations: make([]DeltaEval, len(ge.grid)),
		eps:         eps,
		beta:        opts.Beta,
		rand:        opts.Rand,
		discrete:    opts.DiscreteRelease,
	}
	for i, d := range ge.grid {
		v := ge.fdeltas[i]
		p.qs[i] = math.Abs(v-ge.fsf) + d/epsHalf
		p.evaluations[i] = DeltaEval{Delta: d, FDelta: v, Q: p.qs[i]}
	}
	return p
}

// Release performs the random half of Algorithm 1: GEM selection at ε/2 and
// a Laplace release at ε/2, where ε = Epsilon() is the budget this
// estimator was prepared with (for the component-count path that is the
// forest share of the total, not the caller's whole budget). Each call is
// an independent ε-node-private release: k calls compose to k·ε by
// Lemma 2.4, tracked by Releases and SpentBudget but not enforced — use the
// Session API for a hard budget.
func (p *Prepared) Release() (Result, error) {
	p.releases.Add(1)
	res := Result{Evaluations: p.evaluations, Stats: p.ge.stats}
	epsHalf := p.eps / 2
	sel, err := mechanism.GEM(p.rand, p.ge.grid, p.qs, epsHalf, p.beta)
	if err != nil {
		return res, fmt.Errorf("core: GEM selection: %w", err)
	}
	res.Delta = sel.Delta
	res.FDelta = p.evaluations[sel.Index].FDelta
	res.NoiseScale = sel.Delta / epsHalf

	if p.discrete {
		// Integer mechanism: rounding raises sensitivity to Δ̂+1.
		scale := (sel.Delta + 1) / epsHalf
		res.NoiseScale = scale
		noise, err := dpnoise.DiscreteLaplaceScaled(p.rand, scale)
		if err != nil {
			return res, fmt.Errorf("core: discrete release: %w", err)
		}
		res.Value = math.Round(res.FDelta) + float64(noise)
		return res, nil
	}

	release, err := mechanism.LaplaceRelease(p.rand, res.FDelta, sel.Delta, epsHalf)
	if err != nil {
		return res, fmt.Errorf("core: release: %w", err)
	}
	res.Value = release
	return res, nil
}

// estimateSFFromGrid is the release half of Algorithm 1 with total budget
// eps on a grid evaluation. The one-shot estimators and the session serving
// layer both funnel through here, which is what makes a seeded session
// query bit-for-bit identical to the equivalent one-shot call.
func estimateSFFromGrid(ctx context.Context, ge *GridEval, opts Options, eps float64) (Result, error) {
	p := newPrepared(ge, opts, eps)
	// A cancelation landing after the last grid evaluation must still
	// abort before any noise is drawn — the contract is that a canceled
	// run spends no budget.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return p.Release()
}

// checkGrid rejects a grid evaluation that was computed under a different
// Δ-grid or different value-affecting evaluator options than the
// (defaulted) options ask for — silently releasing from a mismatched
// evaluation would be an accuracy bug, not a privacy bug, but still a bug.
func checkGrid(ge *GridEval, opts Options) error {
	//detlint:allow floatorder — exact config-identity check: DeltaMax is copied from Options, never computed, so bit equality is the correct test
	if ge.deltaMax != opts.DeltaMax {
		return fmt.Errorf("core: grid evaluation has DeltaMax %v, options ask for %v", ge.deltaMax, opts.DeltaMax)
	}
	if ge.optsDigest != planOptionsDigest(opts) {
		return fmt.Errorf("core: grid evaluation was computed under different evaluator options (%s) than requested (%s)",
			ge.optsDigest, planOptionsDigest(opts))
	}
	return nil
}

// EstimateSpanningForestSizeFromGrid is EstimateSpanningForestSizeCtx with
// the deterministic half replaced by a precomputed (possibly cached) grid
// evaluation: only GEM selection and the Laplace release run here. With the
// same options and noise source, the release is bit-for-bit identical to
// the one-shot call on the same graph.
func EstimateSpanningForestSizeFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ge.n)
	if err != nil {
		return Result{}, err
	}
	if err := checkGrid(ge, opts); err != nil {
		return Result{}, err
	}
	return estimateSFFromGrid(ctx, ge, opts, opts.Epsilon)
}

// EstimateComponentCountFromGrid is EstimateComponentCountCtx on a
// precomputed grid evaluation; see EstimateSpanningForestSizeFromGrid.
func EstimateComponentCountFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ge.n)
	if err != nil {
		return Result{}, err
	}
	if err := checkGrid(ge, opts); err != nil {
		return Result{}, err
	}
	return estimateCCFromGrid(ctx, ge, opts)
}

// estimateCCFromGrid splits the (defaulted) budget between the private
// vertex count and the forest estimate, drawing the count noise first —
// the same draw order as the one-shot path, so seeded runs agree.
func estimateCCFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	epsCount := opts.Epsilon * opts.CountBudgetFraction
	epsSF := opts.Epsilon - epsCount
	p := newPrepared(ge, opts, epsSF)
	// As in estimateSFFromGrid: no noise draws once ctx is done.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	nHat, err := mechanism.LaplaceRelease(opts.Rand, float64(ge.n), 1, epsCount)
	if err != nil {
		return Result{}, err
	}
	res, err := p.Release()
	if err != nil {
		return res, err
	}
	res.NHat = nHat
	res.Value = nHat - res.Value
	return res, nil
}

// EstimateComponentCountKnownNFromGrid is EstimateComponentCountKnownNCtx
// on a precomputed grid evaluation; see EstimateSpanningForestSizeFromGrid.
func EstimateComponentCountKnownNFromGrid(ctx context.Context, ge *GridEval, opts Options) (Result, error) {
	opts, err := opts.withDefaults(ge.n)
	if err != nil {
		return Result{}, err
	}
	if err := checkGrid(ge, opts); err != nil {
		return Result{}, err
	}
	res, err := estimateSFFromGrid(ctx, ge, opts, opts.Epsilon)
	if err != nil {
		return res, err
	}
	res.NHat = float64(ge.n)
	res.Value = float64(ge.n) - res.Value
	return res, nil
}

// EstimateComponentCount releases an ε-node-private estimate of f_cc(G)
// via Equation (1): f_cc = |V| − f_sf. A CountBudgetFraction share of ε
// buys the private vertex count (sensitivity 1 under node-privacy); the
// rest runs Algorithm 1 for f_sf.
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
