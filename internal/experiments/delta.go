package experiments

import (
	"context"
	"math"
	"strconv"
	"time"

	"nodedp/internal/core"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
)

// E22LiveGraphDeltas validates the live-graph mutation layer: ApplyDelta
// on a many-component workload must (1) release bit-for-bit what a cold
// open of the mutated graph releases, (2) re-plan only the components the
// delta touched — the untouched majority is reused from the component
// sub-plan cache — and (3) amortize: the delta re-plan is measurably
// cheaper than re-opening the mutated graph against an empty cache. A
// rejected delta (injected overlap error) must leave the fingerprint and
// every subsequent release untouched.
func E22LiveGraphDeltas(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E22",
		Title:   "live-graph deltas: component-local re-planning over the sub-plan cache",
		Claim:   "a mutated session is bit-identical to a cold open of the mutated graph, at the cost of re-planning only the touched components (f_Δ is additive over components)",
		Columns: []string{"check", "want", "got", "pass"},
	}
	clusters, size, deltas := 12, 20, 8
	if cfg.Quick {
		clusters, size, deltas = 6, 14, 4
	}
	sizes := make([]int, clusters)
	for i := range sizes {
		sizes[i] = size
	}
	rng := generate.NewRand(cfg.Seed*1409 + 7)
	g := generate.PlantedComponents(sizes, 2.5/float64(size), rng)
	ctx := context.Background()

	cache := core.NewPlanCache(64)
	sess, err := serve.Open(ctx, g, serve.SessionOptions{
		TotalBudget: float64(4 * deltas), Cache: cache,
	})
	if err != nil {
		return nil, err
	}

	// A rolling mutation stream: delta i adds a bridge between blocks
	// 2i and 2i+1 (merging two components) and removes the bridge the
	// previous delta added (splitting them again). Each delta touches at
	// most three components out of `clusters`.
	bridge := func(i int) graph.Edge {
		a, b := (2*i)%clusters, (2*i+1)%clusters
		return graph.NewEdge(a*size, b*size)
	}
	live := g
	bitIdentical, reusedMajority := 0, 0
	// Each side's time is its fastest trial: the trials interleave, so one
	// preempted call cannot decide the amortization check.
	deltaPlanNS, coldPlanNS := int64(math.MaxInt64), int64(math.MaxInt64)
	for i := 0; i < deltas; i++ {
		adds := []graph.Edge{bridge(i)}
		var removes []graph.Edge
		if i > 0 {
			removes = append(removes, bridge(i-1))
		}

		start := time.Now()
		res, err := sess.ApplyDelta(ctx, adds, removes)
		if err != nil {
			return nil, err
		}
		deltaPlanNS = min(deltaPlanNS, time.Since(start).Nanoseconds())
		// Reuse comes in two grades: a whole-plan cache hit (the mutation
		// cycled back to a previously served graph — zero re-planning) or
		// a sub-plan majority (most components reused verbatim).
		if res.PlanCacheHit || res.SubPlanHits > res.SubPlanMisses {
			reusedMajority++
		}

		// The cold control: the same mutated graph, a fresh session, an
		// empty cache (timed as the re-open the delta replaces).
		mutated, err := applyToGraph(live, adds, removes)
		if err != nil {
			return nil, err
		}
		live = mutated
		start = time.Now()
		cold, err := serve.Open(ctx, mutated, serve.SessionOptions{
			TotalBudget: 4, Cache: core.NewPlanCache(64),
		})
		if err != nil {
			return nil, err
		}
		coldPlanNS = min(coldPlanNS, time.Since(start).Nanoseconds())

		seed := cfg.Seed*1000 + uint64(i) + 1
		lr, err := sess.ComponentCount(ctx, serve.QueryOptions{Epsilon: 0.5, Seed: seed})
		if err != nil {
			return nil, err
		}
		cr, err := cold.ComponentCount(ctx, serve.QueryOptions{Epsilon: 0.5, Seed: seed})
		if err != nil {
			return nil, err
		}
		if lr.Value == cr.Value && lr.Delta == cr.Delta && lr.NHat == cr.NHat {
			bitIdentical++
		}
	}
	t.AddRow("deltas bit-identical to cold open", deltas, bitIdentical, bitIdentical == deltas)
	t.AddRow("deltas reusing a component majority", deltas, reusedMajority, reusedMajority == deltas)

	// Rejected delta: an edge in both lists has no set semantics; the
	// session must be untouched — same fingerprint, same next release.
	fpBefore := sess.Fingerprint()
	e := bridge(deltas - 1)
	if _, err := sess.ApplyDelta(ctx, []graph.Edge{e}, []graph.Edge{e}); err == nil {
		t.AddRow("overlap delta rejected", true, false, false)
	} else {
		same := sess.Fingerprint() == fpBefore
		t.AddRow("overlap delta rejected", true, true, true)
		t.AddRow("rejected delta leaves fingerprint", true, same, same)
	}

	deltaUS := float64(deltaPlanNS) / 1e3
	coldUS := float64(coldPlanNS) / 1e3
	amort := coldUS / deltaUS
	t.AddRow("µs/re-plan: cold open vs delta", "delta ≪ cold",
		formatFloat(coldUS)+" vs "+formatFloat(deltaUS), amort > 1)
	t.Notes = append(t.Notes,
		"every pass cell must be true; the re-plan timing row is a wall-clock measurement, each side its fastest of "+
			strconv.Itoa(deltas)+" interleaved trials (amortization "+formatFloat(amort)+
			"× here); deltas spend no privacy budget — the boundary queries do")
	return t, nil
}

// applyToGraph rebuilds base minus removes plus adds as a fresh graph.
func applyToGraph(base *graph.Graph, adds, removes []graph.Edge) (*graph.Graph, error) {
	drop := make(map[graph.Edge]bool, len(removes))
	for _, e := range removes {
		drop[graph.NewEdge(e.U, e.V)] = true
	}
	var edges []graph.Edge
	for _, e := range base.Edges() {
		if !drop[e] {
			edges = append(edges, e)
		}
	}
	edges = append(edges, adds...)
	return graph.FromEdges(base.N(), edges)
}
