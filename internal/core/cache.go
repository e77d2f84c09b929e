package core

// This file implements PlanCache, a bounded LRU cache of grid evaluations
// keyed by canonical graph fingerprint plus a digest of the plan-relevant
// options. The Δ-grid of Lipschitz-extension LPs is the expensive half of
// Algorithm 1 and is fully deterministic per (graph, grid, LP options), so
// a serving deployment pays it once per distinct graph: opening a session
// on an identical graph — same *Graph, a re-read copy, or one built in a
// different edge order — reuses the cached evaluation and goes straight to
// the cheap per-query noise. Any one-edge difference changes the
// fingerprint and misses.
//
// Cached GridEvals are immutable and shared by reference; the cache only
// bounds how many distinct (graph, options) evaluations it retains, not
// their lifetime in sessions that already hold one.

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"nodedp/internal/fault"
	"nodedp/internal/graph"
	"nodedp/internal/obs"
)

// DefaultPlanCacheCapacity is the entry bound used when NewPlanCache is
// given a non-positive capacity.
const DefaultPlanCacheCapacity = 16

// CacheStats reports a PlanCache's counters. Hits and Misses count GridEval
// lookups; Evictions counts entries dropped by the LRU bounds (entry count
// or weight); Invalidations counts entries removed by Invalidate; Coalesced
// counts lookups that joined another caller's in-flight evaluation of the
// same key instead of duplicating it (single-flight).
type CacheStats struct {
	Hits, Misses, Evictions, Invalidations, Coalesced int64
	// SnapshotSaves and SnapshotLoads count Save/Load passes;
	// SnapshotEntriesSaved, SnapshotEntriesLoaded, and
	// SnapshotEntriesSkipped count the entries they wrote, merged in, and
	// had to drop (corrupt, unknown version, or invariant-violating — see
	// LoadReport). Together they make warm-restart behavior observable in
	// /metrics without reading daemon logs.
	SnapshotSaves, SnapshotLoads                                        int64
	SnapshotEntriesSaved, SnapshotEntriesLoaded, SnapshotEntriesSkipped int64
	// SnapshotSavesSkipped counts periodic saves elided by the dirty-bit
	// check (SaveFileIfChanged): nothing touched the cache since the last
	// successful save, so rewriting identical bytes — and the atomic
	// rename — was skipped.
	SnapshotSavesSkipped int64
	// SubPlanHits and SubPlanMisses count per-component lookups in the
	// sub-plan layer (see subplan.go): every whole-graph miss resolves each
	// non-trivial component against it, so after a graph mutation the hit
	// count shows exactly how much planning the delta reused.
	// SubPlanEvictions counts sub-plans dropped by the sub-plan LRU bound.
	SubPlanHits, SubPlanMisses, SubPlanEvictions int64
	// SubPlanEntries is the current number of cached component sub-plans.
	SubPlanEntries int
	// EngineRefactorizations, EngineParametricSlides,
	// EngineParametricCheapSolves, and EngineIncrementalFallbacks sum the
	// parametric LP engine's solver-depth counters (see forestlp.Stats)
	// over the currently cached grid evaluations, making the new engine's
	// behavior visible in /metrics without reading per-plan stats.
	EngineRefactorizations, EngineParametricSlides          int64
	EngineParametricCheapSolves, EngineIncrementalFallbacks int64
	// Entries is the current number of cached evaluations.
	Entries int
	// Weight is the summed grid-evaluation cost of the cached entries (see
	// GridEval.Cost) and WeightCapacity the admission bound on it (0 =
	// bounded by entry count only). EntryWeights lists the per-entry costs
	// in most-recently-used-first order, so one huge plan is visibly not
	// interchangeable with many trivial ones.
	Weight, WeightCapacity int64
	EntryWeights           []int64
}

// cacheKey identifies one cached evaluation: the graph's canonical
// fingerprint plus a digest of every option that changes the grid values.
type cacheKey struct {
	fp   graph.Fingerprint
	opts string
}

// planOptionsDigest captures the options that alter a grid evaluation's
// values: the grid itself (DeltaMax) and the evaluator's numeric knobs,
// normalized so zero-valued and explicitly-default configurations digest
// identically. Workers, SepWorkers, ShardTimings, and Trace change only
// scheduling and diagnostics, never values, and are deliberately excluded
// so sessions with different concurrency settings share entries.
// DisableWarmStart, DisableIncremental, SepExhaustive, and SepWaveWidth
// are included conservatively: they are value-neutral on converging
// instances, but they change the oracle schedule (or, for the incremental
// knob, the solve trajectory), so a stalled piece can return a different
// path-dependent relaxation bound, and they also change the work counters
// stored with the cached evaluation.
func planOptionsDigest(o Options) string {
	f := o.ForestLP.Normalize()
	return fmt.Sprintf("dmax=%g tol=%g rounds=%d cuts=%d drop=%d stall=%d nofast=%t nopeel=%t nowarm=%t noincr=%t exh=%t wave=%d lp=%+v",
		o.DeltaMax, f.Tol, f.MaxRounds, f.MaxCutsPerRound, f.DropSlackAfter, f.StallRounds,
		f.DisableFastPath, f.DisablePeel, f.DisableWarmStart, f.DisableIncremental, f.SepExhaustive, f.SepWaveWidth, f.LP)
}

type cacheEntry struct {
	key cacheKey
	ge  *GridEval
	// h is the entry's GreedyDual-Size credit (weighted caches only):
	// the eviction clock at the last touch plus the entry's cost, so
	// expensive plans out-survive parades of cheap ones while the rising
	// clock ages every entry toward eviction eventually.
	h float64
}

// flight is one in-progress evaluation that concurrent misses of the same
// key wait on instead of duplicating. ge and err are written before done is
// closed, so waiters read them without further synchronization.
type flight struct {
	done chan struct{}
	ge   *GridEval
	err  error
	// invalidated is set (under the cache mutex) by Invalidate while the
	// evaluation is still in flight. The leader reads it under the same
	// mutex when it finishes: a marked flight's result is neither admitted
	// to the cache nor handed to waiters as a hit — waiters are released
	// with a cancelation so the single-flight loop makes them re-evaluate
	// against the post-invalidation cache instead of adopting a plan the
	// invalidator believes is gone.
	invalidated bool
}

// PlanCache is a bounded, thread-safe LRU cache of grid evaluations keyed
// by graph fingerprint. A single PlanCache may back any number of
// concurrent sessions; the zero value is not usable — construct with
// NewPlanCache.
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	weightCap int64      // 0 = no weight bound
	weight    int64      // summed Cost of cached entries
	clock     float64    // GreedyDual-Size eviction clock (weighted mode)
	ll        *list.List // front = most recently used
	entries   map[cacheKey]*list.Element
	inflight  map[cacheKey]*flight
	stats     CacheStats

	// Sub-plan layer (see subplan.go): per-component grid evaluations
	// keyed by component fingerprint + options digest, bounded by a
	// separate entry-count LRU. Not persisted in snapshots.
	subLL      *list.List // front = most recently used
	subEntries map[subPlanKey]*list.Element

	// gen counts persisted-state changes — inserts, loads, evictions,
	// invalidations, and hits (a hit refreshes the recency order and the
	// GreedyDual-Size credit, both of which Save writes out) — and
	// savedGen records gen at the last successful save. Equal values mean
	// a snapshot taken now would be byte-identical to the one on disk, so
	// SaveFileIfChanged skips it (the daemon's periodic-save dirty bit).
	gen, savedGen uint64
}

// NewPlanCache returns an empty cache bounded to capacity entries
// (DefaultPlanCacheCapacity if capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{
		cap:        capacity,
		ll:         list.New(),
		entries:    make(map[cacheKey]*list.Element),
		inflight:   make(map[cacheKey]*flight),
		subLL:      list.New(),
		subEntries: make(map[subPlanKey]*list.Element),
	}
}

// NewPlanCacheWeighted returns a cache bounded by summed grid-evaluation
// cost (GridEval.Cost units) instead of raw entry count, with
// GreedyDual-Size eviction: every entry holds a credit of (eviction clock
// at last touch) + cost, the victim is always the minimum-credit entry, and
// the clock rises to the victim's credit. Cheap plans therefore go first —
// one huge plan cannot be evicted by a parade of trivial ones, the failure
// mode of raw entry counting — while the rising clock still ages a stale
// huge plan out once the cache has moved on. A single entry heavier than
// maxWeight is still cached (evicting it immediately would thrash the one
// plan the deployment needs most); it then has the cache to itself.
// maxWeight must be positive.
func NewPlanCacheWeighted(maxWeight int64) *PlanCache {
	if maxWeight <= 0 {
		maxWeight = 1
	}
	c := NewPlanCache(int(^uint(0) >> 1)) // weight-bounded: no entry bound
	c.weightCap = maxWeight
	return c
}

// GridEval returns the grid evaluation for g under opts, computing and
// caching it on a miss. hit reports whether planning was skipped. Options
// handling matches EvaluateGrid: Epsilon is irrelevant to the result and
// may be zero.
//
// Concurrent misses on the same key are single-flighted: the first caller
// evaluates, the rest wait on its result and report a cache hit (they did
// no planning). A waiter whose own ctx expires leaves with ctx.Err(); if
// the evaluating caller is canceled, a surviving waiter takes over the
// evaluation rather than inheriting the cancelation.
func (c *PlanCache) GridEval(ctx context.Context, g *graph.Graph, opts Options) (ge *GridEval, hit bool, err error) {
	// Tracing (internal/obs): a "core.plan" span brackets the lookup; on a
	// miss the forestlp sweep span nests under it. cache_hit mirrors the
	// returned hit flag so a trace alone answers "did this query plan?".
	sp, ctx := obs.StartSpan(ctx, "core.plan")
	defer func() {
		if sp != nil {
			if hit {
				sp.SetCounter("cache_hit", 1)
			} else {
				sp.SetCounter("cache_hit", 0)
			}
			sp.End()
		}
	}()
	if opts.Epsilon == 0 {
		opts.Epsilon = 1 // as in EvaluateGrid: ε does not enter grid values
	}
	opts, err = opts.withDefaults(g.N())
	if err != nil {
		return nil, false, err
	}
	csr := graph.NewCSR(g)
	key := cacheKey{fp: csr.Fingerprint(), opts: planOptionsDigest(opts)}

	// Each logical lookup counts exactly once — Hits, Misses, or Coalesced
	// — even when a canceled leader makes a waiter loop and take over.
	counted := false
	count := func(counter *int64) {
		if !counted {
			*counter++
			counted = true
		}
	}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			entry := el.Value.(*cacheEntry)
			entry.h = c.clock + float64(entry.ge.Cost())
			c.gen++ // recency and credit are persisted state
			count(&c.stats.Hits)
			c.mu.Unlock()
			return entry.ge, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			count(&c.stats.Coalesced)
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.err == nil {
				return f.ge, true, nil
			}
			if errIsCancel(f.err) {
				continue // the evaluator bailed, not us: take over
			}
			return nil, false, f.err
		}
		count(&c.stats.Misses)
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// The miss path evaluates with this cache as the sub-plan store
		// (subplan.go): after a graph mutation only the touched components
		// re-plan.
		f.ge, f.err = evaluateGrid(ctx, csr, key.fp, opts, c)
		// Failpoint between evaluation and admission: a firing site turns a
		// finished evaluation into an error *before* the insert gate below,
		// proving no partial or fault-tainted plan can enter the cache (the
		// chaos suite's save→load round trip checks the same invariant from
		// the outside).
		if f.err == nil {
			f.err = fault.Hit("core.cache.admit")
		}

		c.mu.Lock()
		delete(c.inflight, key)
		stale := f.invalidated
		if f.err == nil && !stale {
			c.insertLocked(key, f.ge)
		}
		c.mu.Unlock()
		ge, evalErr := f.ge, f.err
		if evalErr == nil && stale {
			// Invalidate ran while this evaluation was in flight. The result
			// is still correct for the snapshot this caller evaluated —
			// return it to them — but it is not admitted above, and waiters
			// must not adopt it as a hit: hand them a cancelation so the
			// single-flight loop sends each one back through a fresh lookup.
			f.ge = nil
			f.err = fmt.Errorf("core: plan-cache flight invalidated mid-evaluation: %w", context.Canceled)
		}
		close(f.done)
		if evalErr != nil {
			return nil, false, evalErr
		}
		return ge, false, nil
	}
}

// insertLocked adds an evaluation (c.mu held), evicting entries past the
// capacity bounds: least-recently-used under the entry-count bound,
// minimum GreedyDual-Size credit under the weight bound. A racing insert of
// the same key keeps the existing entry. The newly inserted entry itself is
// never evicted: a plan heavier than the whole weight budget is more
// valuable alone than an empty cache.
func (c *PlanCache) insertLocked(key cacheKey, ge *GridEval) {
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.admitLocked(key, ge, c.clock+float64(ge.Cost()))
}

// admitLocked pushes a new entry (key must be absent; c.mu held) with the
// given GreedyDual-Size credit and runs the eviction loop. Snapshot loading
// enters here directly so reloaded entries keep their saved credit instead
// of being treated as freshly touched.
func (c *PlanCache) admitLocked(key cacheKey, ge *GridEval, h float64) {
	c.gen++ // one bump covers the insert and any evictions it causes
	inserted := c.ll.PushFront(&cacheEntry{key: key, ge: ge, h: h})
	c.entries[key] = inserted
	c.weight += ge.Cost()
	for c.ll.Len() > 1 && (c.ll.Len() > c.cap || (c.weightCap > 0 && c.weight > c.weightCap)) {
		victim := c.ll.Back()
		if c.weightCap > 0 {
			// Weight pressure: evict the minimum-credit entry (LRU order
			// breaks credit ties), sparing the entry just inserted, and
			// advance the clock to the departing credit.
			for el := c.ll.Back(); el != nil; el = el.Prev() {
				if el == inserted {
					continue
				}
				if el.Value.(*cacheEntry).h < victim.Value.(*cacheEntry).h || victim == inserted {
					victim = el
				}
			}
			c.clock = victim.Value.(*cacheEntry).h
		}
		c.ll.Remove(victim)
		entry := victim.Value.(*cacheEntry)
		delete(c.entries, entry.key)
		c.weight -= entry.ge.Cost()
		c.stats.Evictions++
	}
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Invalidate removes every cached evaluation of the graph with the given
// fingerprint (across all option digests) and returns how many entries were
// dropped. Mutating a graph already changes its fingerprint, so future
// lookups would miss anyway; Invalidate exists to reclaim the memory of
// evaluations that can no longer be hit and to give mutation sites an
// explicit hook.
func (c *PlanCache) Invalidate(fp graph.Fingerprint) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Mark in-flight evaluations of the fingerprint: their leaders finish,
	// see the mark under this same mutex, and neither admit the result nor
	// let waiters adopt it (see the flight type). Without the mark, a
	// leader finishing after Invalidate returned would quietly re-insert an
	// entry the caller was promised is gone.
	for key, f := range c.inflight {
		if key.fp == fp {
			f.invalidated = true
		}
	}
	// Component sub-plans are deliberately not touched: they are keyed by
	// component content shared across graphs, and the point of a mutation
	// is that untouched components keep their cached work.
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if entry := el.Value.(*cacheEntry); entry.key.fp == fp {
			c.ll.Remove(el)
			delete(c.entries, entry.key)
			c.weight -= entry.ge.Cost()
			c.stats.Invalidations++
			removed++
		}
		el = next
	}
	if removed > 0 {
		c.gen++
	}
	return removed
}

// Stats returns a snapshot of the cache counters, including the per-entry
// grid-evaluation weights in most-recently-used-first order.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.SubPlanEntries = c.subLL.Len()
	s.Weight = c.weight
	s.WeightCapacity = c.weightCap
	s.EntryWeights = make([]int64, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		entry := el.Value.(*cacheEntry)
		s.EntryWeights = append(s.EntryWeights, entry.ge.Cost())
		es := &entry.ge.stats
		s.EngineRefactorizations += int64(es.Refactorizations)
		s.EngineParametricSlides += int64(es.ParametricSlides)
		s.EngineParametricCheapSolves += int64(es.ParametricCheapSolves)
		s.EngineIncrementalFallbacks += int64(es.IncrementalFallbacks)
	}
	return s
}

// Len returns the current number of cached evaluations.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
