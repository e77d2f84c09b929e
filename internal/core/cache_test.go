package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"nodedp/internal/graph"
)

// cacheTestGraph builds a fixed multi-component graph from the given edge
// order.
func cacheTestGraph(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var cacheTestEdges = []graph.Edge{
	{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
	{U: 3, V: 4}, {U: 4, V: 5}, // path
	{U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 6}, {U: 6, V: 8},
}

func TestPlanCacheHitOnIdenticalGraphDifferentOrder(t *testing.T) {
	// Drop the duplicate edge {6,8} (FromEdges rejects duplicates).
	edges := cacheTestEdges[:8]
	g1 := cacheTestGraph(t, edges)
	reversed := make([]graph.Edge, len(edges))
	for i, e := range edges {
		reversed[len(edges)-1-i] = e
	}
	g2 := cacheTestGraph(t, reversed)

	cache := NewPlanCache(4)
	ctx := context.Background()
	ge1, hit, err := cache.GridEval(ctx, g1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup must miss")
	}
	ge2, hit, err := cache.GridEval(ctx, g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("identical graph built in a different edge order must hit")
	}
	if ge1 != ge2 {
		t.Fatal("hit must return the shared cached evaluation")
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestPlanCacheOneEdgeMutationMisses(t *testing.T) {
	edges := cacheTestEdges[:8]
	g := cacheTestGraph(t, edges)
	cache := NewPlanCache(4)
	ctx := context.Background()
	if _, _, err := cache.GridEval(ctx, g, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	_, hit, err := cache.GridEval(ctx, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("one-edge mutation must miss the cache")
	}
	if s := cache.Stats(); s.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one per graph version)", s.Entries)
	}
}

func TestPlanCacheOptionsChangeMisses(t *testing.T) {
	g := cacheTestGraph(t, cacheTestEdges[:8])
	cache := NewPlanCache(4)
	ctx := context.Background()
	if _, _, err := cache.GridEval(ctx, g, Options{}); err != nil {
		t.Fatal(err)
	}
	// Workers only changes scheduling; same values, must hit.
	opts := Options{}
	opts.ForestLP.Workers = 3
	if _, hit, err := cache.GridEval(ctx, g, opts); err != nil || !hit {
		t.Fatalf("Workers change: hit=%v err=%v, want hit", hit, err)
	}
}

// TestPlanOptionsDigestPinned pins the default plan-option digest byte for
// byte: persisted snapshots key their entries by it, so an edit that moved
// a single byte would silently turn every saved plan into a miss.
func TestPlanOptionsDigestPinned(t *testing.T) {
	const want = "dmax=16 tol=1e-07 rounds=1000 cuts=48 drop=3 stall=80 nofast=false nopeel=false " +
		"nowarm=false noincr=false exh=false wave=16 lp={Tol:0 MaxPivots:0 BlandAfter:0 Basis:[]}"
	if got := planOptionsDigest(16); got != want {
		t.Fatalf("planOptionsDigest changed:\n got %s\nwant %s", got, want)
	}
}

// sprintfDigest is the fmt form planOptionsDigest's bytes were first
// defined by, over the engine settings that are constants now, with dmax
// the Δmax of a graph on n vertices, max(n, 1). Its lp part is the %+v
// form of the zero lp.Options of the time, which had four fields.
func sprintfDigest(n int) string {
	return fmt.Sprintf("dmax=%g tol=%g rounds=%d cuts=%d drop=%d stall=%d nofast=%t nopeel=%t nowarm=false noincr=false exh=false wave=%d lp={Tol:0 MaxPivots:0 BlandAfter:0 Basis:[]}",
		float64(max(n, 1)), 1e-7, 1000, 48, 3, 80, false, false, 16)
}

// TestPlanOptionsDigestMatchesSprintf checks planOptionsDigest against the
// fmt reference byte for byte over vertex counts from empty to the
// largest int, through the ones whose %g switches to exponent form.
func TestPlanOptionsDigestMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 2, 16, 25, 99999, 100000, 1e6, 123456789, math.MaxInt} {
		if got, want := planOptionsDigest(n), sprintfDigest(n); got != want {
			t.Fatalf("n=%d: digest\n got %s\nwant %s", n, got, want)
		}
	}
}

func TestPlanCacheLRUEvicts(t *testing.T) {
	cache := NewPlanCache(2)
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(3, 4))
	graphs := make([]*graph.Graph, 3)
	for i := range graphs {
		g := graph.New(6)
		for k := 0; k < 5; k++ {
			u, v := rng.IntN(6), rng.IntN(6)
			if u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Make the graphs pairwise distinct for sure.
		if i > 0 {
			g.RemoveEdge(g.Edges()[0].U, g.Edges()[0].V)
		}
		graphs[i] = g
	}
	for _, g := range graphs {
		if _, _, err := cache.GridEval(ctx, g, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	s := cache.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", s)
	}
	// graphs[0] was least recently used and must have been evicted.
	if _, hit, err := cache.GridEval(ctx, graphs[0], Options{}); err != nil || hit {
		t.Fatalf("evicted entry: hit=%v err=%v, want miss", hit, err)
	}
	// graphs[2] is still resident.
	if _, hit, err := cache.GridEval(ctx, graphs[2], Options{}); err != nil || !hit {
		t.Fatalf("resident entry: hit=%v err=%v, want hit", hit, err)
	}
}

// TestGridEvalMatchesOneShot pins the refactoring invariant: a release from
// a cached grid evaluation is bit-for-bit the release of the one-shot
// estimator with the same seed, and the nil cache the one-shot estimators
// plan through returns a cold cache's evaluation bit for bit.
func TestGridEvalMatchesOneShot(t *testing.T) {
	g := cacheTestGraph(t, cacheTestEdges[:8])
	ctx := context.Background()
	ge, _, err := NewPlanCache(1).GridEval(ctx, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uncached, hit, err := (*PlanCache)(nil).GridEval(ctx, g, Options{})
	if err != nil || hit {
		t.Fatalf("nil cache: hit=%v err=%v, want a plan and no hit", hit, err)
	}
	if uncached.Fingerprint() != g.Fingerprint() || uncached.Fingerprint() != ge.Fingerprint() ||
		!sameBits(uncached.fsf, ge.fsf) || uncached.stats != ge.stats || len(uncached.grid) != len(ge.grid) {
		t.Fatalf("nil cache (fp=%v fsf=%v %+v), cold cache (fp=%v fsf=%v %+v)",
			uncached.Fingerprint(), uncached.fsf, uncached.stats, ge.Fingerprint(), ge.fsf, ge.stats)
	}
	for i := range ge.grid {
		if !sameBits(uncached.grid[i], ge.grid[i]) || !sameBits(uncached.fdeltas[i], ge.fdeltas[i]) {
			t.Fatalf("point %d: nil cache (Δ=%v, %v), cold cache (Δ=%v, %v)", i,
				uncached.grid[i], uncached.fdeltas[i], ge.grid[i], ge.fdeltas[i])
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for name, pair := range map[string][2]func(*rand.Rand) (Result, error){
			"sf": {
				func(r *rand.Rand) (Result, error) {
					return EstimateSpanningForestSize(g, Options{Epsilon: 1.5, Rand: r})
				},
				func(r *rand.Rand) (Result, error) {
					return EstimateSpanningForestSizeFromGrid(ctx, ge, Options{Epsilon: 1.5, Rand: r})
				},
			},
			"cc": {
				func(r *rand.Rand) (Result, error) {
					return EstimateComponentCount(g, Options{Epsilon: 1.5, Rand: r})
				},
				func(r *rand.Rand) (Result, error) {
					return EstimateComponentCountFromGrid(ctx, ge, Options{Epsilon: 1.5, Rand: r})
				},
			},
			"cc-known-n": {
				func(r *rand.Rand) (Result, error) {
					return EstimateComponentCountKnownN(g, Options{Epsilon: 1.5, Rand: r})
				},
				func(r *rand.Rand) (Result, error) {
					return EstimateComponentCountKnownNFromGrid(ctx, ge, Options{Epsilon: 1.5, Rand: r})
				},
			},
		} {
			oneShot, err := pair[0](rand.New(rand.NewPCG(seed, seed)))
			if err != nil {
				t.Fatal(err)
			}
			fromGrid, err := pair[1](rand.New(rand.NewPCG(seed, seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(oneShot, fromGrid) {
				t.Fatalf("%s seed %d: one-shot %+v != from-grid %+v", name, seed, oneShot, fromGrid)
			}
		}
	}
}

// sameResult reports whether two releases agree in every float bit, every
// per-Δ diagnostic and every work counter.
func sameResult(a, b Result) bool {
	return sameBits(a.Value, b.Value) && sameBits(a.Delta, b.Delta) && sameBits(a.FDelta, b.FDelta) &&
		sameBits(a.NoiseScale, b.NoiseScale) && sameBits(a.NHat, b.NHat) &&
		reflect.DeepEqual(a.Evaluations, b.Evaluations) && a.Stats == b.Stats
}

// TestPlanCacheSingleFlight launches many concurrent cold lookups of the
// same graph and checks that exactly one evaluates (one miss), the rest
// coalesce onto it, and everyone receives the same evaluation.
func TestPlanCacheSingleFlight(t *testing.T) {
	g := cacheTestGraph(t, cacheTestEdges[:8])
	cache := NewPlanCache(4)
	opts := Options{Epsilon: 1, Rand: rand.New(rand.NewPCG(1, 2))}

	const callers = 16
	type outcome struct {
		ge  *GridEval
		hit bool
		err error
	}
	results := make([]outcome, callers)
	start := make(chan struct{})
	done := make(chan int, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			<-start
			ge, hit, err := cache.GridEval(context.Background(), g, opts)
			results[i] = outcome{ge, hit, err}
			done <- i
		}(i)
	}
	close(start)
	for i := 0; i < callers; i++ {
		<-done
	}

	first := results[0].ge
	misses := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
		if r.ge == nil {
			t.Fatalf("caller %d: nil evaluation", i)
		}
		if r.ge != first {
			t.Errorf("caller %d received a different evaluation pointer", i)
		}
		if !r.hit {
			misses++
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (single-flight)", st.Misses)
	}
	if misses != 1 {
		t.Errorf("%d callers report doing the planning, want 1", misses)
	}
	if st.Coalesced+st.Hits != callers-1 {
		t.Errorf("coalesced %d + hits %d != %d", st.Coalesced, st.Hits, callers-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestPlanCacheSingleFlightLeaderCanceled cancels the first (evaluating)
// caller and checks that a waiting caller takes over instead of inheriting
// the cancelation.
func TestPlanCacheSingleFlightLeaderCanceled(t *testing.T) {
	g := cacheTestGraph(t, cacheTestEdges[:8])
	cache := NewPlanCache(4)
	opts := Options{Epsilon: 1, Rand: rand.New(rand.NewPCG(3, 4))}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	cancelLeader() // the leader is doomed before it starts
	_, _, err := cache.GridEval(leaderCtx, g, opts)
	if err == nil {
		t.Fatal("canceled leader should fail")
	}
	// A fresh caller must still be able to evaluate.
	ge, hit, err := cache.GridEval(context.Background(), g, opts)
	if err != nil || ge == nil {
		t.Fatalf("follow-up evaluation failed: %v", err)
	}
	if hit {
		t.Fatal("follow-up after canceled leader cannot be a hit")
	}
}

// weightTestGraph builds a path on n vertices (n−1 edges), giving graphs of
// controllable, strictly ordered grid-evaluation cost.
func weightTestGraph(t *testing.T, n int, mark int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		// Skip one edge identified by mark so equal-size graphs differ.
		if v == mark {
			continue
		}
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPlanCacheWeightedAdmission: a weight-bounded cache evicts by summed
// grid-evaluation cost, so a stream of trivial plans cannot displace one
// huge plan the way it would under a raw entry bound.
func TestPlanCacheWeightedAdmission(t *testing.T) {
	ctx := context.Background()
	big := weightTestGraph(t, 120, -1)
	bigCost := func() int64 {
		ge, _, err := (*PlanCache)(nil).GridEval(ctx, big, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ge.Cost()
	}()

	// Budget: the big plan plus a little slack, far below 2× the big plan.
	cache := NewPlanCacheWeighted(bigCost + bigCost/4)
	if _, hit, err := cache.GridEval(ctx, big, Options{}); err != nil || hit {
		t.Fatalf("big plan first insert: hit=%v err=%v", hit, err)
	}

	// A parade of trivial plans: each is admitted, but eviction pressure
	// must fall on the older trivial plans, never on the big plan — its
	// weight dominates the ledger, so the trivial ones go first.
	for i := 0; i < 12; i++ {
		small := weightTestGraph(t, 16, i)
		if _, _, err := cache.GridEval(ctx, small, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, hit, err := cache.GridEval(ctx, big, Options{}); err != nil || !hit {
		t.Fatalf("big plan evicted by trivial plans: hit=%v err=%v, want hit", hit, err)
	}

	s := cache.Stats()
	if s.WeightCapacity != bigCost+bigCost/4 {
		t.Fatalf("WeightCapacity = %d, want %d", s.WeightCapacity, bigCost+bigCost/4)
	}
	if s.Weight <= 0 || s.Weight > s.WeightCapacity {
		t.Fatalf("Weight = %d, want in (0, %d]", s.Weight, s.WeightCapacity)
	}
	if len(s.EntryWeights) != s.Entries {
		t.Fatalf("EntryWeights has %d entries, cache has %d", len(s.EntryWeights), s.Entries)
	}
	// The big plan was just touched: it must be the MRU entry and its
	// weight must dwarf every trivial one.
	if s.EntryWeights[0] != bigCost {
		t.Fatalf("MRU weight = %d, want the big plan's %d", s.EntryWeights[0], bigCost)
	}
	for _, w := range s.EntryWeights[1:] {
		if w >= bigCost {
			t.Fatalf("trivial plan weight %d ≥ big plan %d", w, bigCost)
		}
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions: the weight bound never engaged")
	}
}

// TestPlanCacheWeightedOversizedEntry: a single plan heavier than the whole
// weight budget is still cached (and alone).
func TestPlanCacheWeightedOversizedEntry(t *testing.T) {
	ctx := context.Background()
	cache := NewPlanCacheWeighted(1)
	g := weightTestGraph(t, 40, -1)
	if _, hit, err := cache.GridEval(ctx, g, Options{}); err != nil || hit {
		t.Fatalf("oversized insert: hit=%v err=%v", hit, err)
	}
	if _, hit, err := cache.GridEval(ctx, g, Options{}); err != nil || !hit {
		t.Fatalf("oversized entry not resident: hit=%v err=%v", hit, err)
	}
	if s := cache.Stats(); s.Entries != 1 || s.Weight <= s.WeightCapacity {
		t.Fatalf("stats = %+v, want exactly the oversized entry", s)
	}
}

// TestSubPlanCapacityKeepsWholeAssembly is the sub-plan LRU cliff
// regression: a graph with more non-trivial components than
// DefaultSubPlanCapacity must keep all of them cached through its cold
// open, so every later bridge delta re-plans exactly the merged component
// instead of the components the open evicted.
func TestSubPlanCapacityKeepsWholeAssembly(t *testing.T) {
	const blocks, size = 300, 6
	// Block b is a path on its vertices plus the chords selected by the
	// bits of b: distinct edge sets, hence distinct component fingerprints.
	var edges []graph.Edge
	for b := 0; b < blocks; b++ {
		base, bit := b*size, 0
		for u := 0; u < size; u++ {
			if u+1 < size {
				edges = append(edges, graph.NewEdge(base+u, base+u+1))
			}
			for v := u + 2; v < size; v++ {
				if b>>bit&1 == 1 {
					edges = append(edges, graph.NewEdge(base+u, base+v))
				}
				bit++
			}
		}
	}
	g, err := graph.FromEdges(blocks*size, edges)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := NewPlanCache(4)
	if _, _, err := cache.GridEval(ctx, g, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.SubPlanEntries != blocks || st.SubPlanEvictions != 0 {
		t.Errorf("cold open kept %d of %d sub-plans (%d evicted)", st.SubPlanEntries, blocks, st.SubPlanEvictions)
	}
	for k := 0; k < 3; k++ {
		before := cache.Stats()
		if err := g.AddEdge(2*k*size, (2*k+1)*size); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := cache.GridEval(ctx, g, Options{}); err != nil || hit {
			t.Fatalf("bridge %d: hit=%v err=%v, want a planned miss", k, hit, err)
		}
		st := cache.Stats()
		misses, hits := st.SubPlanMisses-before.SubPlanMisses, st.SubPlanHits-before.SubPlanHits
		if misses != 1 || hits != int64(blocks-k-2) {
			t.Fatalf("bridge %d re-planned %d components and reused %d, want 1 and %d", k, misses, hits, blocks-k-2)
		}
	}
}
