package core

// This file implements evaluateGrid, the one producer of every GridEval,
// and the component-keyed sub-plan layer of the PlanCache it draws on.
// f_Δ is additive over connected components, so a whole-graph grid
// evaluation is the per-grid-point sum of independent per-component
// evaluations — and those per-component results are cacheable under the
// component's own canonical fingerprint. evaluateGrid looks every
// non-trivial component up in a sub-plan store (the PlanCache on its miss
// path; nil for uncached callers, which then evaluate every component),
// evaluates the missing ones in one forestlp grid sweep, admits them, and
// merges all components in shard order. After a graph mutation
// (Session.ApplyDelta) only the touched components have new fingerprints;
// every untouched component hits, so a delta-open re-plans O(touched)
// instead of O(graph). The graph work is O(touched) too: a live session
// holds its graph as a graph.Decomposition, whose Apply rebuilds and
// re-hashes only the touched components, and the delta entry point
// (PlanCache.GridEvalDecomposition) reads the shards and their
// fingerprints from it — no CSR, no labelling pass, no edge hashing. What
// stays O(#components) is the lookup and merge below, which visit every
// shard.
//
// Merging per component is exact, which is what makes a delta-open equal a
// cold open of the same graph bit for bit, in values and counters:
//
//   - Values: a component's value vector depends only on its own edges and
//     the grid. Each shard is evaluated independently (per-shard clamp
//     to [0, n_i−1]) with strictly per-shard warm state over a sequential
//     grid, so a cached vector equals a fresh one, and the merge sums every
//     component in shard order and clamps the total to [0, f_sf] whichever
//     of them were cached.
//   - Stats: integer counters are additive and max-gauges commute, so
//     adding a cached component's work equals evaluating it again. The
//     sweep's plan covers every component, supplied ones included, so the
//     Components and Workers it reports are those of the whole graph.
//
// Sub-plans are bounded by an entry-count LRU, separate from the
// whole-graph entry bounds, and are not persisted in snapshots: they are
// derived state, cheap to refill, and keyed by fingerprints that a snapshot
// of whole-graph evaluations cannot validate.

import (
	"context"
	"fmt"

	"nodedp/internal/fault"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// DefaultSubPlanCapacity bounds the number of cached per-component
// sub-plans. Components are much smaller than whole graphs (their value
// vectors are one float per grid point), so the sub-plan cache affords a
// larger entry count than the whole-graph bound. An evaluation of a graph
// with more non-trivial components than this keeps all of them: admission
// never evicts below the admitting evaluation's component count.
const DefaultSubPlanCapacity = 256

// subPlanKey identifies one component's grid evaluation: the component's
// canonical fingerprint (local-rank renumbering, see
// graph.CSR.ComponentFingerprints) plus the whole graph's Δmax. A
// component's values depend on its edges and the grid, and the grid's top
// is max(n, 1) of the graph it sits in, so the same component in graphs of
// different sizes is two sub-plans; a stored value vector is always
// aligned with the grid of any lookup that hits it.
type subPlanKey struct {
	fp       graph.Fingerprint
	deltaMax float64
}

// subPlan is one non-trivial component's cached share of a grid
// evaluation. It is immutable after insertion and shared by reference.
//
//privacy:secret — values are exact per-component f_Δ evaluations, pre-noise (see GridEval).
type subPlan struct {
	// values[j] is the component's contribution to f_Δ at grid point j,
	// clamped to [0, n−1] by the per-shard evaluator.
	values []float64
	// stats is the component's grid-aggregated work (Components = 1).
	stats forestlp.Stats
}

type subPlanEntry struct {
	key subPlanKey
	sub *subPlan
}

// evaluateGrid runs the deterministic half of Algorithm 1 on a component
// decomposition — shards in graph.CSR.ComponentShards order — and is the
// only producer of a GridEval: a nil PlanCache's lookups pass a nil
// store, the PlanCache's miss paths pass itself (see the file
// comment). fps, when non-nil, holds the shards' fingerprints (a
// graph.Decomposition carries them); with nil fps a store hashes each
// non-trivial shard itself. The grid runs up to deltaMax of the shards'
// vertex count; fp is the whole graph's fingerprint, O(1) from its lane
// sums. The returned Lookup counts this evaluation's own sub-plan hits and
// misses.
func evaluateGrid(ctx context.Context, shards []*graph.Shard, fps []graph.Fingerprint, fp graph.Fingerprint, lpOpts forestlp.Options, store *PlanCache) (*GridEval, Lookup, error) {
	n, m := 0, 0
	for _, sh := range shards {
		n += sh.N()
		m += sh.M()
	}
	dmax := deltaMax(n)
	grid, err := mechanism.PowerOfTwoGrid(dmax)
	if err != nil {
		return nil, Lookup{}, err
	}
	keys, subs, lk := store.subLookup(shards, fps, dmax)

	// One sweep plans and evaluates every component the store lacks, on
	// the Workers pool; the supplied components are never materialized.
	var stats forestlp.Stats
	for _, sp := range subs {
		if sp != nil {
			stats.MergeComponent(sp.stats)
		}
	}
	plan := forestlp.NewPlanShards(shards, func(c int) bool { return subs[c] != nil })
	sweep, err := plan.Sweep(ctx, grid, lpOpts)
	if err != nil {
		return nil, Lookup{}, fmt.Errorf("core: %w", err)
	}
	stats.MergeComponent(sweep.Stats)
	for i, c := range sweep.Comps {
		subs[c] = &subPlan{values: sweep.Values[i], stats: sweep.Work[i]}
	}
	if err := store.subAdmit(keys, subs, len(sweep.Comps)); err != nil {
		return nil, Lookup{}, err
	}

	// Failpoint before the merge: every sub-plan is admitted, but the
	// whole-graph evaluation must still fail atomically — no partial
	// GridEval, no whole-graph cache entry.
	if err := fault.Hit("core.subplan.merge"); err != nil {
		return nil, Lookup{}, err
	}

	// Deterministic merge: per grid point, sum the component contributions
	// in shard order and clamp to [0, f_sf]. Singletons contribute zero.
	fsf := float64(plan.SpanningForestSize())
	values := make([]float64, len(grid))
	for j := range grid {
		total := 0.0
		for _, sp := range subs {
			if sp != nil {
				total += sp.values[j]
			}
		}
		if total > fsf {
			total = fsf
		}
		if total < 0 {
			total = 0
		}
		values[j] = total
	}
	return &GridEval{
		n:           n,
		m:           m,
		fingerprint: fp,
		grid:        grid,
		fdeltas:     values,
		fsf:         fsf,
		stats:       stats,
	}, lk, nil
}

// subLookup resolves every non-trivial component of shards against the
// sub-plan layer, counting hits and misses both in the cache's stats and in
// the returned Lookup, and returns keys[c] and subs[c] (nil on a miss) for
// component c. fps[c] is component c's fingerprint, or fps is nil and each
// non-trivial shard is hashed here. The nil cache is the uncached store: it
// computes no fingerprints and supplies nothing.
func (c *PlanCache) subLookup(shards []*graph.Shard, fps []graph.Fingerprint, deltaMax float64) ([]subPlanKey, []*subPlan, Lookup) {
	subs := make([]*subPlan, len(shards))
	if c == nil {
		return nil, subs, Lookup{}
	}
	keys := make([]subPlanKey, len(shards))
	for i, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		if fps != nil {
			keys[i] = subPlanKey{fp: fps[i], deltaMax: deltaMax}
		} else {
			keys[i] = subPlanKey{fp: sh.Fingerprint(), deltaMax: deltaMax}
		}
	}
	var lk Lookup
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		if el, ok := c.subEntries[keys[i]]; ok {
			subs[i] = el.Value.(*subPlanEntry).sub
			lk.SubPlanHits++
		} else {
			lk.SubPlanMisses++
		}
	}
	c.stats.SubPlanHits += lk.SubPlanHits
	c.stats.SubPlanMisses += lk.SubPlanMisses
	return keys, subs, lk
}

// subAdmit admits one evaluation's sub-plans after its sweep succeeded:
// each of the fresh components the sweep evaluated passes the admission
// failpoint once, and only if none fired are they inserted and the
// supplied ones refreshed, so the evaluation's components end up the most
// recently used. Eviction then never goes below their count: a graph with
// more non-trivial components than the capacity would otherwise evict its
// own sub-plans while being planned and re-plan them on every later delta.
// A racing insert of the same key keeps the existing entry — both computed
// identical values. Sub-plan recency is not persisted state, so no gen
// bump. The nil cache admits nothing.
func (c *PlanCache) subAdmit(keys []subPlanKey, subs []*subPlan, fresh int) error {
	if c == nil {
		return nil
	}
	for range fresh {
		// Failpoint between a component's evaluation and its admission: a
		// firing site proves a fault-tainted sub-plan never enters the
		// sub-plan cache and never reaches the merge.
		if err := fault.Hit("core.subplan.admit"); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	count := 0
	for i, sp := range subs {
		if sp == nil {
			continue
		}
		count++
		if el, ok := c.subEntries[keys[i]]; ok {
			c.subLL.MoveToFront(el)
		} else {
			c.subEntries[keys[i]] = c.subLL.PushFront(&subPlanEntry{key: keys[i], sub: sp})
		}
	}
	for c.subLL.Len() > max(DefaultSubPlanCapacity, count) {
		victim := c.subLL.Back()
		c.subLL.Remove(victim)
		delete(c.subEntries, victim.Value.(*subPlanEntry).key)
		c.stats.SubPlanEvictions++
	}
	return nil
}
