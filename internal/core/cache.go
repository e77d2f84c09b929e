package core

// This file implements PlanCache, a bounded LRU cache of grid evaluations
// keyed by canonical graph fingerprint. The Δ-grid of Lipschitz-extension
// LPs is the expensive half of Algorithm 1 and is fully deterministic per
// graph (the grid itself is a function of n), so a serving deployment pays
// it once per distinct graph: opening a session on an identical graph — same
// *Graph, a re-read copy, or one built in a different edge order — reuses
// the cached evaluation and goes straight to the cheap per-query noise.
// Any one-edge difference changes the fingerprint and misses.
//
// Cached GridEvals are immutable and shared by reference; the cache only
// bounds how many distinct graphs' evaluations it retains, not
// their lifetime in sessions that already hold one. A mutated graph's old
// plan is never removed explicitly: no lookup can hit it again, so it ages
// out under the entry-count or weight bound like any other cold entry.

import (
	"container/list"
	"context"
	"errors"
	"strconv"
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
// or weight); Coalesced counts lookups that joined another caller's
// in-flight evaluation of the same key instead of duplicating it
// (single-flight).
type CacheStats struct {
	Hits, Misses, Evictions, Coalesced int64
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
	// sub-plan layer (see subplan.go), summed over every lookup: each
	// whole-graph miss resolves each non-trivial component against it. One
	// lookup's own counts are in its Lookup (GridEvalDecomposition).
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
	// EngineStalledPieces sums forestlp.Stats.StalledPieces over the cached
	// grid evaluations the same way: LP pieces whose value is a stalled
	// relaxation bound, which may exceed f_Δ, not a converged optimum.
	EngineStalledPieces int64
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

// planOptionsDigest is the options digest a snapshot stores with the entry
// of a graph on n vertices. Its bytes are those of
//
//	fmt.Sprintf("dmax=%g tol=%g rounds=%d cuts=%d drop=%d stall=%d nofast=%t nopeel=%t nowarm=false noincr=false exh=false wave=%d lp=%+v", …)
//
// over Δmax and the engine's settings, which are all fixed now, so only
// dmax varies, as max(n, 1), and snapshots written under default options
// still load and hit: keep them. Load skips an entry whose digest is not
// the one for its n, since no lookup can ask for it.
func planOptionsDigest(n int) string {
	return "dmax=" + strconv.FormatFloat(deltaMax(n), 'g', -1, 64) + engineDigest
}

// engineDigest is planOptionsDigest's constant tail.
const engineDigest = " tol=1e-07 rounds=1000 cuts=48 drop=3 stall=80 nofast=false nopeel=false " +
	"nowarm=false noincr=false exh=false wave=16 lp={Tol:0 MaxPivots:0 BlandAfter:0 Basis:[]}"

type cacheEntry struct {
	fp graph.Fingerprint
	ge *GridEval
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
}

// PlanCache is a bounded, thread-safe LRU cache of grid evaluations keyed
// by graph fingerprint. No option changes a grid value, so the fingerprint
// is the whole key: sessions with different Workers share entries. A
// single PlanCache may back any number of concurrent sessions; the zero
// value is not usable — construct with NewPlanCache.
type PlanCache struct {
	mu        sync.Mutex
	cap       int
	weightCap int64      // 0 = no weight bound
	weight    int64      // summed Cost of cached entries
	clock     float64    // GreedyDual-Size eviction clock (weighted mode)
	ll        *list.List // front = most recently used
	entries   map[graph.Fingerprint]*list.Element
	inflight  map[graph.Fingerprint]*flight
	stats     CacheStats

	// Sub-plan layer (see subplan.go): per-component grid evaluations
	// keyed by component fingerprint + Δmax, bounded by a
	// separate entry-count LRU. Not persisted in snapshots.
	subLL      *list.List // front = most recently used
	subEntries map[subPlanKey]*list.Element

	// gen counts persisted-state changes — inserts, loads, evictions, and
	// hits (a hit refreshes the recency order and the GreedyDual-Size
	// credit, both of which Save writes out) — and
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
		entries:    make(map[graph.Fingerprint]*list.Element),
		inflight:   make(map[graph.Fingerprint]*flight),
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

// GridEval returns the grid evaluation for g, computing and caching it on a
// miss. It is the one call that plans a *graph.Graph. Only opts.ForestLP
// is read, and it schedules work without changing a value: the grid
// depends on g alone. hit reports whether planning was skipped. The key is
// g.Fingerprint(), O(1); only a miss builds a CSR, whose one labelling
// pass yields the shards and whose shards are hashed once for the sub-plan
// lookup. A nil cache evaluates every component, caches nothing and
// reports no hit; the one-shot estimators plan that way.
//
// Concurrent misses on the same key are single-flighted: the first caller
// evaluates, the rest wait on its result and report a cache hit (they did
// no planning). A waiter whose own ctx expires leaves with ctx.Err(); if
// the evaluating caller is canceled, a surviving waiter takes over the
// evaluation rather than inheriting the cancelation.
func (c *PlanCache) GridEval(ctx context.Context, g *graph.Graph, opts Options) (ge *GridEval, hit bool, err error) {
	fp := g.Fingerprint()
	if c == nil {
		ge, _, err = evaluateGrid(ctx, graph.NewCSR(g).ComponentShards(), nil, fp, opts.ForestLP, nil)
		return ge, false, err
	}
	ge, lk, err := c.plan(ctx, fp, func(ctx context.Context) (*GridEval, Lookup, error) {
		return evaluateGrid(ctx, graph.NewCSR(g).ComponentShards(), nil, fp, opts.ForestLP, c)
	})
	return ge, lk.Hit, err
}

// Lookup reports what one grid-evaluation lookup did.
type Lookup struct {
	// Hit reports that planning was skipped: the whole evaluation was
	// cached, or a concurrent lookup of the same key computed it.
	Hit bool
	// SubPlanHits and SubPlanMisses count this lookup's own component
	// lookups in the sub-plan layer (subplan.go): components reused
	// verbatim and components evaluated. A Hit did none and reports 0/0.
	// Unlike the differences of two CacheStats snapshots, they never
	// include a concurrent lookup's counts.
	SubPlanHits, SubPlanMisses int64
}

// GridEvalDecomposition is GridEval for a graph held as a decomposition —
// a live session's graph after a delta (graph.Decomposition.Apply). The key
// is d.Fingerprint(), O(1), and a miss reads d's shards and component
// fingerprints: it builds no CSR and hashes no edge. A nil cache evaluates
// every component and caches nothing.
func (c *PlanCache) GridEvalDecomposition(ctx context.Context, d *graph.Decomposition, opts Options) (*GridEval, Lookup, error) {
	if c == nil {
		return evaluateGrid(ctx, d.Shards(), nil, d.Fingerprint(), opts.ForestLP, nil)
	}
	fp := d.Fingerprint()
	return c.plan(ctx, fp, func(ctx context.Context) (*GridEval, Lookup, error) {
		return evaluateGrid(ctx, d.Shards(), d.ComponentFingerprints(), fp, opts.ForestLP, c)
	})
}

// plan is the lookup both entry points share: it looks the graph with
// fingerprint fp up and runs evaluate — with this cache as the sub-plan
// store, so after a graph mutation only the touched components re-plan —
// on a single-flighted miss.
func (c *PlanCache) plan(ctx context.Context, fp graph.Fingerprint, evaluate func(context.Context) (*GridEval, Lookup, error)) (ge *GridEval, lk Lookup, err error) {
	// Tracing (internal/obs): a "core.plan" span brackets the lookup; on a
	// miss the forestlp sweep span nests under it. cache_hit mirrors the
	// returned hit flag so a trace alone answers "did this query plan?".
	sp, ctx := obs.StartSpan(ctx, "core.plan")
	defer func() {
		if sp != nil {
			if lk.Hit {
				sp.SetCounter("cache_hit", 1)
			} else {
				sp.SetCounter("cache_hit", 0)
			}
			sp.End()
		}
	}()
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
		if el, ok := c.entries[fp]; ok {
			c.ll.MoveToFront(el)
			entry := el.Value.(*cacheEntry)
			entry.h = c.clock + float64(entry.ge.Cost())
			c.gen++ // recency and credit are persisted state
			count(&c.stats.Hits)
			c.mu.Unlock()
			return entry.ge, Lookup{Hit: true}, nil
		}
		if f, ok := c.inflight[fp]; ok {
			count(&c.stats.Coalesced)
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Lookup{}, ctx.Err()
			}
			if f.err == nil {
				return f.ge, Lookup{Hit: true}, nil
			}
			if errIsCancel(f.err) {
				continue // the evaluator bailed, not us: take over
			}
			return nil, Lookup{}, f.err
		}
		count(&c.stats.Misses)
		f := &flight{done: make(chan struct{})}
		c.inflight[fp] = f
		c.mu.Unlock()

		f.ge, lk, f.err = evaluate(ctx)
		// Failpoint between evaluation and admission: a firing site turns a
		// finished evaluation into an error *before* the insert gate below,
		// proving no partial or fault-tainted plan can enter the cache (the
		// chaos suite's save→load round trip checks the same invariant from
		// the outside).
		if f.err == nil {
			f.err = fault.Hit("core.cache.admit")
		}

		c.mu.Lock()
		delete(c.inflight, fp)
		if f.err == nil {
			c.insertLocked(fp, f.ge)
		}
		c.mu.Unlock()
		close(f.done)
		if f.err != nil {
			return nil, Lookup{}, f.err
		}
		return f.ge, lk, nil
	}
}

// insertLocked adds an evaluation (c.mu held), evicting entries past the
// capacity bounds: least-recently-used under the entry-count bound,
// minimum GreedyDual-Size credit under the weight bound. A racing insert of
// the same key keeps the existing entry. The newly inserted entry itself is
// never evicted: a plan heavier than the whole weight budget is more
// valuable alone than an empty cache.
func (c *PlanCache) insertLocked(fp graph.Fingerprint, ge *GridEval) {
	if el, ok := c.entries[fp]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.admitLocked(fp, ge, c.clock+float64(ge.Cost()))
}

// admitLocked pushes a new entry (fp must be absent; c.mu held) with the
// given GreedyDual-Size credit and runs the eviction loop. Snapshot loading
// enters here directly so reloaded entries keep their saved credit instead
// of being treated as freshly touched.
func (c *PlanCache) admitLocked(fp graph.Fingerprint, ge *GridEval, h float64) {
	c.gen++ // one bump covers the insert and any evictions it causes
	inserted := c.ll.PushFront(&cacheEntry{fp: fp, ge: ge, h: h})
	c.entries[fp] = inserted
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
		delete(c.entries, entry.fp)
		c.weight -= entry.ge.Cost()
		c.stats.Evictions++
	}
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
		s.EngineStalledPieces += int64(es.StalledPieces)
	}
	return s
}

// Len returns the current number of cached evaluations.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
