package serve

// Session-level conformance tests for plan-cache persistence: the
// acceptance contract of the warm-restart PR is that a seeded query
// answered from a snapshot-reloaded plan is bit-for-bit identical to the
// same query from the live cache that produced the snapshot, across
// composition accountants and separation-worker configurations, and that
// persistence running concurrently with serving neither tears plans nor
// double-spends budget.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/privacy"
)

// persistGraphs spans the same regimes as the core-level suite: sparse ER
// (many components), a structured grid, and a supercritical ER giant
// component (LP-heavy).
func persistGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er-sparse": generate.ErdosRenyi(60, 0.02, generate.NewRand(21)),
		"grid":      generate.Grid(6, 6),
		"er-giant":  generate.ErdosRenyi(36, 0.14, generate.NewRand(22)),
	}
}

func bitsEqual(a, b core.Result) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.NoiseScale) == math.Float64bits(b.NoiseScale) &&
		math.Float64bits(a.NHat) == math.Float64bits(b.NHat) &&
		math.Float64bits(a.FDelta) == math.Float64bits(b.FDelta)
}

// TestSessionReloadBitIdentity: for every graph family, composition mode ∈
// {sequential, advanced}, and Workers ∈ {1, 8}, a session opened on a
// snapshot-reloaded cache is a plan-cache hit and releases bit-identical
// seeded values to the session that populated the live cache.
func TestSessionReloadBitIdentity(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	type comp struct {
		name  string
		mode  privacy.Composition
		delta float64
	}
	comps := []comp{
		{"sequential", privacy.Sequential, 0},
		{"advanced", privacy.Advanced, 1e-9},
	}

	for famName, g := range persistGraphs() {
		for _, cm := range comps {
			for _, workers := range []int{1, 8} {
				name := famName + "/" + cm.name
				opts := SessionOptions{TotalBudget: 50, Composition: cm.mode, Delta: cm.delta}
				opts.ForestLP.Workers = workers

				live := core.NewPlanCacheWeighted(1 << 30)
				opts.Cache = live
				sessLive, err := Open(ctx, g, opts)
				if err != nil {
					t.Fatalf("%s/workers=%d: open live: %v", name, workers, err)
				}
				if sessLive.Stats().CacheHit {
					t.Fatalf("%s/workers=%d: first open was a hit", name, workers)
				}

				queries := []struct {
					op   Op
					mode Mode
					seed uint64
				}{
					{OpComponentCount, PrivateN, 31},
					{OpComponentCount, KnownN, 32},
					{OpSpanningForestSize, PrivateN, 33},
				}
				run := func(s *Session, op Op, mode Mode, seed uint64) core.Result {
					t.Helper()
					q := QueryOptions{Epsilon: 0.4, Mode: mode, Seed: seed}
					var res core.Result
					var err error
					if op == OpSpanningForestSize {
						res, err = s.SpanningForestSize(ctx, q)
					} else {
						res, err = s.ComponentCount(ctx, q)
					}
					if err != nil {
						t.Fatalf("%s/workers=%d: query: %v", name, workers, err)
					}
					return res
				}

				var want []core.Result
				for _, q := range queries {
					want = append(want, run(sessLive, q.op, q.mode, q.seed))
				}

				snap := filepath.Join(dir, famName+"-"+cm.name+".snap")
				if n, err := live.SaveFile(snap); err != nil || n != 1 {
					t.Fatalf("%s/workers=%d: save: %d, %v", name, workers, n, err)
				}

				warm := core.NewPlanCacheWeighted(1 << 30)
				rep, err := warm.LoadFile(snap)
				if err != nil || rep.Loaded != 1 || rep.Skipped() != 0 {
					t.Fatalf("%s/workers=%d: load: %+v, %v", name, workers, rep, err)
				}
				opts.Cache = warm
				sessWarm, err := Open(ctx, g, opts)
				if err != nil {
					t.Fatalf("%s/workers=%d: open warm: %v", name, workers, err)
				}
				if !sessWarm.Stats().CacheHit {
					t.Fatalf("%s/workers=%d: reloaded open was not a cache hit — the restart would replan", name, workers)
				}

				for i, q := range queries {
					got := run(sessWarm, q.op, q.mode, q.seed)
					if !bitsEqual(got, want[i]) {
						t.Fatalf("%s/workers=%d: seeded release %d differs after reload:\nlive %+v\nwarm %+v",
							name, workers, i, want[i], got)
					}
				}

				ls, ws := live.Stats(), warm.Stats()
				if ls.Weight != ws.Weight {
					t.Fatalf("%s/workers=%d: cache weight changed across reload: %d vs %d",
						name, workers, ls.Weight, ws.Weight)
				}
			}
		}
	}
}

// TestPersistenceUnderConcurrency is the -race stress test of the ISSUE:
// concurrent seeded queries on sessions over one shared cache, periodic
// background saves, and one Load into the warm, serving registry — no torn
// reads (every save decodes cleanly; every reloaded plan validates) and no
// double-spend in either composition accountant.
func TestPersistenceUnderConcurrency(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	g := generate.PlantedComponents([]int{8, 8, 8}, 0.4, generate.NewRand(41))
	g2 := generate.Grid(5, 5)

	cache := core.NewPlanCacheWeighted(1 << 30)

	// Pre-warm with a second graph and snapshot it: the mid-flight Load
	// below merges this file into the live cache while queries run.
	if _, _, err := cache.GridEval(ctx, g2, core.Options{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	preSnap := filepath.Join(dir, "pre.snap")
	if _, err := cache.SaveFile(preSnap); err != nil {
		t.Fatal(err)
	}

	const (
		clients   = 8
		perClient = 24
		eps       = 0.05
		// Each client alternates sessions, so the sequential session gets
		// exactly perClient/2 queries per client; sizing the budget to
		// exactly that makes any double-spent reservation reject a query.
		seqBudget  = clients * perClient / 2 * eps
		advBudget  = 4.0
		savePasses = 20
	)
	seq, err := Open(ctx, g, SessionOptions{TotalBudget: seqBudget, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Open(ctx, g, SessionOptions{TotalBudget: advBudget, Composition: privacy.Advanced, Delta: 1e-9, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients+2)

	// Query load: every client alternates sessions and operations.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sess := seq
				if i%2 == 1 {
					sess = adv
				}
				q := QueryOptions{Epsilon: eps, Seed: uint64(c*1000+i) + 1}
				var err error
				if i%3 == 0 {
					_, err = sess.SpanningForestSize(ctx, q)
				} else {
					_, err = sess.ComponentCount(ctx, q)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}

	// Background saver: periodic snapshots of the live cache; every one of
	// them must decode cleanly into a scratch cache (a torn read would
	// fail the checksum or the invariant validation).
	saveSnap := filepath.Join(dir, "live.snap")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < savePasses; i++ {
			if _, err := cache.SaveFile(saveSnap); err != nil {
				errs <- err
				return
			}
			scratch := core.NewPlanCacheWeighted(1 << 30)
			rep, err := scratch.LoadFile(saveSnap)
			if err != nil || rep.SkippedCorrupt > 0 || rep.SkippedInvalid > 0 {
				errs <- err
				t.Errorf("background save pass %d produced a damaged snapshot: %+v", i, rep)
				return
			}
		}
	}()

	// One Load into the warm cache mid-flight, plus a session open racing it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rep, err := cache.LoadFile(preSnap); err != nil || rep.SkippedCorrupt > 0 {
			errs <- err
			return
		}
		sess, err := Open(ctx, g2, SessionOptions{TotalBudget: 1, Cache: cache})
		if err != nil {
			errs <- err
			return
		}
		if _, err := sess.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 99}); err != nil {
			errs <- err
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent persistence: %v", err)
		}
	}

	// Accountant invariants: the sequential session was sized exactly —
	// one double-spent reservation anywhere would have rejected a query
	// above (an error) or left Spent ≠ admitted·ε here.
	if got, want := seq.Spent(), float64(clients)*(perClient/2)*eps; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sequential accountant spent %v, want %v", got, want)
	}
	if seq.Remaining() < -1e-12 || adv.Spent() > advBudget+1e-12 {
		t.Fatalf("budget overdrawn: seq remaining %v, adv spent %v of %v", seq.Remaining(), adv.Spent(), advBudget)
	}

	// The post-stress snapshot still reloads into a working cache.
	if _, err := cache.SaveFile(saveSnap); err != nil {
		t.Fatal(err)
	}
	final := core.NewPlanCacheWeighted(1 << 30)
	rep, err := final.LoadFile(saveSnap)
	if err != nil || rep.Skipped() != 0 || rep.Loaded != 2 {
		t.Fatalf("final snapshot: %+v, %v", rep, err)
	}
	sess, err := Open(ctx, g, SessionOptions{TotalBudget: 1, Cache: final})
	if err != nil || !sess.Stats().CacheHit {
		t.Fatalf("final reloaded cache did not serve the session: %v", err)
	}

	_ = os.Remove(saveSnap)
}
