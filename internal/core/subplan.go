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
// instead of O(graph).
//
// Merging per component is exact, which is what makes a delta-open equal a
// cold open of the same graph bit for bit, in values and counters:
//
//   - Values: a component's value vector depends only on its own edges and
//     the options. Each shard is evaluated independently (per-shard clamp
//     to [0, n_i−1]) with strictly per-shard warm state over a sequential
//     grid, so a cached vector equals a fresh one, and the merge sums every
//     component in shard order and clamps the total to [0, f_sf] whichever
//     of them were cached.
//   - Stats: integer counters are additive and max-gauges commute, so
//     adding a cached component's work equals evaluating it again. The
//     sweep's plan covers every component, supplied ones included, so the
//     Components and Workers it reports are those of the whole graph.
//     (Per-shard timing records are wall-clock diagnostics and cover the
//     evaluated shards only.)
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
// graph.CSR.ComponentFingerprints) plus the same options digest that keys
// whole-graph entries. The digest pins DeltaMax and therefore the grid, so
// a stored value vector is always aligned with the grid of any lookup that
// hits it.
type subPlanKey struct {
	fp   graph.Fingerprint
	opts string
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

// evaluateGrid runs the deterministic half of Algorithm 1 on a snapshot
// and is the only producer of a GridEval: EvaluateGrid and the one-shot
// estimators pass a nil store, the PlanCache's miss path passes itself
// (see the file comment). opts must already carry defaults; fp may be zero
// (the one-shot estimators never consult a cache and skip hashing).
func evaluateGrid(ctx context.Context, csr *graph.CSR, fp graph.Fingerprint, opts Options, store *PlanCache) (*GridEval, error) {
	grid, err := mechanism.PowerOfTwoGrid(opts.DeltaMax)
	if err != nil {
		return nil, err
	}
	digest := planOptionsDigest(opts)
	shards := csr.ComponentShards()
	keys, subs := store.subLookup(csr, shards, digest)

	// One sweep plans and evaluates every component the store lacks, on
	// the Workers pool; the supplied components are never materialized.
	var stats forestlp.Stats
	for _, sp := range subs {
		if sp != nil {
			stats.MergeComponent(sp.stats)
		}
	}
	plan := forestlp.NewPlanShards(shards, func(c int) bool { return subs[c] != nil })
	sweep, err := plan.Sweep(ctx, grid, opts.ForestLP)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	stats.MergeComponent(sweep.Stats)
	for c, v := range sweep.Values {
		if v != nil {
			subs[c] = &subPlan{values: v, stats: sweep.Work[c]}
		}
	}
	if err := store.subAdmit(keys, subs, sweep.Values); err != nil {
		return nil, err
	}

	// Failpoint before the merge: every sub-plan is admitted, but the
	// whole-graph evaluation must still fail atomically — no partial
	// GridEval, no whole-graph cache entry.
	if err := fault.Hit("core.subplan.merge"); err != nil {
		return nil, err
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
		n:           csr.N(),
		m:           csr.M(),
		deltaMax:    opts.DeltaMax,
		optsDigest:  digest,
		fingerprint: fp,
		grid:        grid,
		fdeltas:     values,
		fsf:         fsf,
		stats:       stats,
	}, nil
}

// subLookup resolves every non-trivial component of shards against the
// sub-plan layer, counting hits and misses, and returns keys[c] and
// subs[c] (nil on a miss) for component c. The nil cache is the uncached
// store: it computes no fingerprints and supplies nothing.
func (c *PlanCache) subLookup(csr *graph.CSR, shards []*graph.Shard, digest string) ([]subPlanKey, []*subPlan) {
	subs := make([]*subPlan, len(shards))
	if c == nil {
		return nil, subs
	}
	fps := csr.ComponentFingerprints()
	keys := make([]subPlanKey, len(shards))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		keys[i] = subPlanKey{fp: fps[i], opts: digest}
		if el, ok := c.subEntries[keys[i]]; ok {
			subs[i] = el.Value.(*subPlanEntry).sub
			c.stats.SubPlanHits++
		} else {
			c.stats.SubPlanMisses++
		}
	}
	return keys, subs
}

// subAdmit admits one evaluation's sub-plans after its sweep succeeded:
// every component the sweep evaluated (fresh[c] non-nil) passes the
// admission failpoint, and only if none fired are they inserted and the
// supplied ones refreshed, so the evaluation's components end up the most
// recently used. Eviction then never goes below their count: a graph with
// more non-trivial components than the capacity would otherwise evict its
// own sub-plans while being planned and re-plan them on every later delta.
// A racing insert of the same key keeps the existing entry — both computed
// identical values. Sub-plan recency is not persisted state, so no gen
// bump. The nil cache admits nothing.
func (c *PlanCache) subAdmit(keys []subPlanKey, subs []*subPlan, fresh [][]float64) error {
	if c == nil {
		return nil
	}
	for _, v := range fresh {
		if v == nil {
			continue
		}
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
