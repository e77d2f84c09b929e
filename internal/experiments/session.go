package experiments

import (
	"context"
	"errors"
	"math"
	"strconv"
	"time"

	"nodedp/internal/core"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
)

// E17SessionServing validates the session-oriented serving layer on a
// multi-component workload: one session must build exactly one plan for an
// arbitrary mix of queries, seeded session releases must be bit-for-bit the
// one-shot releases, the composition accountant must admit exactly the
// affordable queries of an over-budget batch, and a second session on an
// identical graph (different edge insertion order) must be served from the
// fingerprint-keyed plan cache. The last row reports the amortization
// factor: µs per one-shot estimate vs. µs per session query.
func E17SessionServing(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "budget-accounted session serving over the fingerprint-keyed plan cache",
		Claim:   "one plan serves k queries bit-identically to one-shot runs; Σε_i is capped by the accountant (Lemma 2.4)",
		Columns: []string{"check", "want", "got", "pass"},
	}
	clusters, size, queries := 8, 24, 12
	if cfg.Quick {
		clusters, size, queries = 4, 16, 8
	}
	sizes := make([]int, clusters)
	for i := range sizes {
		sizes[i] = size
	}
	rng := generate.NewRand(cfg.Seed*977 + 13)
	g := generate.PlantedComponents(sizes, 2.5/float64(size), rng)
	ctx := context.Background()

	// --- one plan for k mixed queries, every release matching one-shot ---
	cache := core.NewPlanCache(4)
	sess, err := serve.Open(ctx, g, serve.SessionOptions{
		TotalBudget: float64(queries), Cache: cache,
	})
	if err != nil {
		return nil, err
	}
	identical := 0
	for i := 0; i < queries; i++ {
		seed := cfg.Seed*1000 + uint64(i) + 1
		eps := 0.25 * float64(1+i%3)
		opts := core.Options{Epsilon: eps, Rand: generate.NewRand(seed)}
		var want core.Result
		var got core.Result
		switch i % 3 {
		case 0:
			if want, err = core.EstimateComponentCountCtx(ctx, g, opts); err != nil {
				return nil, err
			}
			got, err = sess.ComponentCount(ctx, serve.QueryOptions{Epsilon: eps, Seed: seed})
		case 1:
			if want, err = core.EstimateSpanningForestSizeCtx(ctx, g, opts); err != nil {
				return nil, err
			}
			got, err = sess.SpanningForestSize(ctx, serve.QueryOptions{Epsilon: eps, Seed: seed})
		default:
			if want, err = core.EstimateComponentCountKnownNCtx(ctx, g, opts); err != nil {
				return nil, err
			}
			got, err = sess.ComponentCount(ctx, serve.QueryOptions{Epsilon: eps, Mode: serve.KnownN, Seed: seed})
		}
		if err != nil {
			return nil, err
		}
		if got.Value == want.Value && got.Delta == want.Delta {
			identical++
		}
	}
	plans := sess.Stats().PlansBuilt
	t.AddRow("plans built for k queries", 1, plans, plans == 1)
	t.AddRow("releases bit-identical to one-shot", queries, identical, identical == queries)

	// --- accountant: over-budget batch admits exactly the affordable prefix ---
	acct, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1, Cache: cache})
	if err != nil {
		return nil, err
	}
	over := make([]serve.Request, 7)
	for i := range over {
		over[i] = serve.Request{Op: serve.OpComponentCount, Epsilon: 0.25, Seed: uint64(i + 1)}
	}
	admitted, budgetErrs := 0, 0
	for _, resp := range acct.Do(ctx, over) {
		switch {
		case resp.Err == nil:
			admitted++
		case errors.Is(resp.Err, serve.ErrBudgetExhausted):
			budgetErrs++
		}
	}
	t.AddRow("over-budget batch: admitted", 4, admitted, admitted == 4)
	t.AddRow("over-budget batch: ErrBudgetExhausted", 3, budgetErrs, budgetErrs == 3)
	t.AddRow("over-budget batch: spent ≤ total", true, acct.Spent() <= acct.TotalBudget(),
		acct.Spent() <= acct.TotalBudget())

	// --- plan cache: an identical re-read graph skips planning ---
	// Rebuild the same edge set in a shuffled insertion order, as if the
	// graph had been re-read from storage.
	edges := g.Edges()
	shuffle := generate.NewRand(cfg.Seed + 5)
	for i := len(edges) - 1; i > 0; i-- {
		j := shuffle.IntN(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	reread, err := graph.FromEdges(g.N(), edges)
	if err != nil {
		return nil, err
	}
	warm, err := serve.Open(ctx, reread, serve.SessionOptions{TotalBudget: 1, Cache: cache})
	if err != nil {
		return nil, err
	}
	t.AddRow("re-read graph hits plan cache", true, warm.Stats().CacheHit, warm.Stats().CacheHit)

	// --- throughput: amortized session query vs. one-shot ---
	// Each side's time is its fastest trial: the trials interleave, so one
	// preempted call cannot decide the check.
	const trials = 16
	bench, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: float64(trials), Cache: cache})
	if err != nil {
		return nil, err
	}
	oneShotUS, sessUS := math.Inf(1), math.Inf(1)
	for i := 0; i < trials; i++ {
		start := time.Now()
		if _, err := core.EstimateComponentCountCtx(ctx, g,
			core.Options{Epsilon: 0.5, Rand: generate.NewRand(uint64(i) + 1)}); err != nil {
			return nil, err
		}
		oneShotUS = min(oneShotUS, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		if _, err := bench.ComponentCount(ctx, serve.QueryOptions{Epsilon: 0.5, Seed: uint64(i) + 1}); err != nil {
			return nil, err
		}
		sessUS = min(sessUS, float64(time.Since(start).Nanoseconds())/1e3)
	}
	speedup := oneShotUS / sessUS
	t.AddRow("µs/query: one-shot vs session", "session ≪ one-shot",
		formatFloat(oneShotUS)+" vs "+formatFloat(sessUS), speedup > 1)

	t.Notes = append(t.Notes,
		"every pass cell must be true; the throughput row is a wall-clock measurement, each side its fastest of "+
			strconv.Itoa(trials)+" interleaved trials (speedup "+formatFloat(speedup)+"× here)")
	return t, nil
}
