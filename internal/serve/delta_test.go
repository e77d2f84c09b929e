package serve

// Property tests for the live-graph mutation keystone: after any
// ApplyDelta, the session must be indistinguishable — bit-for-bit, in
// released values AND in deterministic work counters — from a session
// cold-opened on the already-mutated graph, across worker counts, with
// and without a plan cache as the sub-plan store, and across component
// merges and splits.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/unionfind"
)

// mutate returns a fresh graph: base minus removes plus adds.
func mutate(t *testing.T, base *graph.Graph, adds, removes []graph.Edge) *graph.Graph {
	t.Helper()
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
	g, err := graph.FromEdges(base.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bitEqualResults fails unless two releases agree in every float bit and
// every work counter.
func bitEqualResults(t *testing.T, label string, live, cold core.Result) {
	t.Helper()
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"Value", live.Value, cold.Value},
		{"Delta", live.Delta, cold.Delta},
		{"FDelta", live.FDelta, cold.FDelta},
		{"NoiseScale", live.NoiseScale, cold.NoiseScale},
		{"NHat", live.NHat, cold.NHat},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			t.Errorf("%s: %s: delta-open %v (%016x) != cold-open %v (%016x)",
				label, f.name, f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y))
		}
	}
	if !reflect.DeepEqual(live.Evaluations, cold.Evaluations) {
		t.Errorf("%s: per-Δ evaluations diverge:\n delta-open: %+v\n cold-open:  %+v", label, live.Evaluations, cold.Evaluations)
	}
	if live.Stats != cold.Stats {
		t.Errorf("%s: work counters diverge:\n delta-open: %+v\n cold-open:  %+v", label, live.Stats, cold.Stats)
	}
}

// assertMatchesColdOpen cross-checks the mutated session, opened with fl,
// against cold opens of want — one with fl planning through a fresh plan
// cache, one with fl and no cache at all (a nil sub-plan store), and one
// with the reference options ref — and compares fingerprints, plan-level
// work counters, and seeded releases of every query type. Against ref the
// resolved pool size Stats.Workers, which follows the options rather than
// the graph and Δ, is left out when ref.Workers differs from fl.Workers.
func assertMatchesColdOpen(t *testing.T, live *Session, want *graph.Graph, fl, ref forestlp.Options) {
	t.Helper()
	ctx := context.Background()
	liveGE := live.snap.Load().ge

	for _, variant := range []struct {
		name  string
		cache *core.PlanCache
		fl    forestlp.Options
	}{
		{"cold-cached", core.NewPlanCache(8), fl},
		{"cold-uncached", nil, fl},
		{fmt.Sprintf("cold-workers=%d", ref.Workers), nil, ref},
	} {
		cold := mustOpen(t, want, SessionOptions{TotalBudget: 100, Cache: variant.cache, ForestLP: variant.fl})
		coldGE := cold.snap.Load().ge
		if liveGE.Fingerprint() != coldGE.Fingerprint() {
			t.Fatalf("%s: fingerprint %v != %v", variant.name, liveGE.Fingerprint(), coldGE.Fingerprint())
		}
		ls, cs := liveGE.Stats(), coldGE.Stats()
		if variant.fl.Workers != fl.Workers {
			ls.Workers, cs.Workers = 0, 0
		}
		if ls != cs {
			t.Errorf("%s: plan work counters diverge:\n delta-open: %+v\n cold-open:  %+v", variant.name, ls, cs)
		}
		if math.Float64bits(liveGE.SpanningForestSize()) != math.Float64bits(coldGE.SpanningForestSize()) {
			t.Errorf("%s: f_sf %v != %v", variant.name, liveGE.SpanningForestSize(), coldGE.SpanningForestSize())
		}

		for seed := uint64(21); seed <= 22; seed++ {
			type queryFn func(s *Session) (core.Result, error)
			for name, run := range map[string]queryFn{
				"cc": func(s *Session) (core.Result, error) {
					return s.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: seed})
				},
				"cc-known-n": func(s *Session) (core.Result, error) {
					return s.ComponentCount(ctx, QueryOptions{Epsilon: 0.25, Mode: KnownN, Seed: seed})
				},
				"sf": func(s *Session) (core.Result, error) {
					return s.SpanningForestSize(ctx, QueryOptions{Epsilon: 0.25, Seed: seed})
				},
			} {
				lr, err := run(live)
				if err != nil {
					t.Fatalf("%s/%s seed %d on mutated session: %v", variant.name, name, seed, err)
				}
				cr, err := run(cold)
				if err != nil {
					t.Fatalf("%s/%s seed %d on cold session: %v", variant.name, name, seed, err)
				}
				if variant.fl.Workers != fl.Workers {
					lr.Stats.Workers, cr.Stats.Workers = 0, 0
				}
				bitEqualResults(t, fmt.Sprintf("%s/%s seed %d", variant.name, name, seed), lr, cr)
			}
		}
	}
}

// TestDeltaOpenBitIdenticalToColdOpen drives one merge delta and one split
// delta through Workers ∈ {1, 4, 8}; Workers > 1 spreads a sweep's
// components, and one component's separation, across a pool. After each
// delta the session must match cold opens with its own Workers and a cold
// open with Workers = sep, whose separation therefore runs sep wide: the
// released values agree across worker counts, not only within one. The
// sep=…,nowarm=false,noincr=false group names are those of the former
// Workers × separation-workers matrix, kept so results stay comparable
// with earlier runs. The planted blocks 0-7, 8-15, 16-23 are
// edge-disjoint, so edge {0, 8} is a guaranteed bridge: adding it merges
// two components, removing it again splits them.
func TestDeltaOpenBitIdenticalToColdOpen(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	bridge := graph.NewEdge(0, 8)
	dropped := g.Edges()[0] // an intra-block edge to remove alongside the merge

	for _, sep := range []int{1, 8} {
		ref := forestlp.Options{Workers: sep}
		t.Run(fmt.Sprintf("sep=%d,nowarm=false,noincr=false", sep), func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				fl := forestlp.Options{Workers: workers}
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					cache := core.NewPlanCache(8)
					live := mustOpen(t, g, SessionOptions{TotalBudget: 1000, Cache: cache, ForestLP: fl})

					// Delta 1: merge blocks 0 and 1 via the bridge, and
					// drop one intra-block edge in the same mutation.
					res, err := live.ApplyDelta(ctx, []graph.Edge{bridge}, []graph.Edge{dropped})
					if err != nil {
						t.Fatal(err)
					}
					if res.Added != 1 || res.Removed != 1 || res.NoOp {
						t.Fatalf("merge delta result %+v", res)
					}
					if res.MergedGroups != 1 {
						t.Errorf("MergedGroups = %d, want 1 (bridge joins two components)", res.MergedGroups)
					}
					g1 := mutate(t, g, []graph.Edge{bridge}, []graph.Edge{dropped})
					assertMatchesColdOpen(t, live, g1, fl, ref)

					// Delta 2: remove the bridge — the only edge between
					// the two block vertex sets — forcing a split.
					res, err = live.ApplyDelta(ctx, nil, []graph.Edge{bridge})
					if err != nil {
						t.Fatal(err)
					}
					if res.Removed != 1 {
						t.Fatalf("split delta result %+v", res)
					}
					if res.Components != res.PreComponents+1 {
						t.Errorf("split: components %d → %d, want an increase of exactly 1",
							res.PreComponents, res.Components)
					}
					g2 := mutate(t, g1, nil, []graph.Edge{bridge})
					assertMatchesColdOpen(t, live, g2, fl, ref)

					// Sanity on the keystone's mechanism: the second delta
					// returned to components the sub-plan layer has already
					// planned, so at least one component must have been a
					// sub-plan hit.
					if st := cache.Stats(); st.SubPlanHits == 0 {
						t.Errorf("no sub-plan reuse across two deltas: %+v", st)
					}
				})
			}
		})
	}
}

// referenceComponentFields is the whole-graph labelling ApplyDelta used
// before it kept a decomposition: component labels of the pre- and
// post-delta graphs, union-find over the pre-delta labels for the merges
// the applied additions performed, and post-delta labels for the touched
// components.
func referenceComponentFields(pre, post *graph.Graph, appliedAdds, appliedRemoves []graph.Edge) (preCount, postCount, merged, touched int) {
	preLabels, preCount := graph.NewCSR(pre).Components()
	dsu := unionfind.New(preCount)
	for _, e := range appliedAdds {
		if dsu.Union(preLabels[e.U], preLabels[e.V]) {
			merged++
		}
	}
	postLabels, postCount := graph.NewCSR(post).Components()
	set := make(map[int]struct{}, 2*(len(appliedAdds)+len(appliedRemoves)))
	for _, list := range [][]graph.Edge{appliedAdds, appliedRemoves} {
		for _, e := range list {
			set[postLabels[e.U]] = struct{}{}
			set[postLabels[e.V]] = struct{}{}
		}
	}
	return preCount, postCount, merged, len(set)
}

// TestDeltaResultComponentFieldsMatchReference drives random multi-edge
// deltas — merges of up to four components, splits, isolating removes,
// redundant adds and removes, no-ops — and checks every DeltaResult's
// component fields against the whole-graph reference.
func TestDeltaResultComponentFieldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	ctx := context.Background()
	var noops, multiMerges, splits int
	for trial := 0; trial < 6; trial++ {
		g := generate.PlantedComponents([]int{5, 4, 6, 3, 1, 5}, 0.5, generate.NewRand(uint64(trial)+1))
		n := g.N()
		sess := mustOpen(t, g, SessionOptions{TotalBudget: 1, Cache: core.NewPlanCache(4)})
		for step := 0; step < 15; step++ {
			var adds, removes []graph.Edge
			for k := rng.IntN(5); k > 0; k-- {
				if u, v := rng.IntN(n), rng.IntN(n); u != v {
					adds = append(adds, graph.NewEdge(u, v))
				}
			}
			if edges := g.Edges(); len(edges) > 0 {
				for k := rng.IntN(4); k > 0; k-- {
					removes = append(removes, edges[rng.IntN(len(edges))])
				}
			}
			if rng.IntN(4) == 0 { // isolate a vertex
				u := rng.IntN(n)
				for _, w := range g.Neighbors(u) {
					removes = append(removes, graph.NewEdge(u, w))
				}
			}
			removes = append(removes, graph.NewEdge(0, n-1)) // often absent
			adds = slices.DeleteFunc(adds, func(e graph.Edge) bool { return slices.Contains(removes, e) })

			var appliedAdds, appliedRemoves []graph.Edge
			post := g.Clone()
			for _, e := range removes {
				if post.RemoveEdge(e.U, e.V) {
					appliedRemoves = append(appliedRemoves, e)
				}
			}
			for _, e := range adds {
				if ok, err := post.EnsureEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				} else if ok && !g.HasEdge(e.U, e.V) {
					appliedAdds = append(appliedAdds, e)
				}
			}
			res, err := sess.ApplyDelta(ctx, adds, removes)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			preCount, postCount, merged, touched := referenceComponentFields(g, post, appliedAdds, appliedRemoves)
			noop := len(appliedAdds) == 0 && len(appliedRemoves) == 0
			if res.Added != len(appliedAdds) || res.Removed != len(appliedRemoves) || res.NoOp != noop || res.Fingerprint != post.Fingerprint() ||
				res.PreComponents != preCount || res.Components != postCount || res.MergedGroups != merged || res.TouchedComponents != touched {
				t.Fatalf("trial %d step %d: result %+v, want added %d removed %d pre %d post %d merged %d touched %d",
					trial, step, res, len(appliedAdds), len(appliedRemoves), preCount, postCount, merged, touched)
			}
			switch {
			case noop:
				noops++
			case merged >= 2:
				multiMerges++
			case postCount > preCount:
				splits++
			}
			g = post
		}
	}
	if noops == 0 || multiMerges == 0 || splits == 0 {
		t.Fatalf("stream missed a delta shape: %d no-ops, %d merges of three or more, %d splits", noops, multiMerges, splits)
	}
}

// TestDeltaSubPlanCountersExactUnderConcurrency runs two sessions' delta
// streams on one plan cache concurrently, beside a cold open of a third
// graph; the three graphs share no component. Each DeltaResult must equal
// what the same delta reports when its stream runs alone.
func TestDeltaSubPlanCountersExactUnderConcurrency(t *testing.T) {
	ctx := context.Background()
	// Distinct block sizes: no component of one graph is a component of
	// another.
	graphs := []*graph.Graph{
		generate.PlantedComponents([]int{6, 6, 6, 6}, 0.6, generate.NewRand(5)),
		generate.PlantedComponents([]int{7, 7, 7}, 0.6, generate.NewRand(6)),
	}
	third := generate.PlantedComponents([]int{9, 9, 9, 9, 9}, 0.5, generate.NewRand(7))
	// Each stream bridges blocks 0 and 1 with a new edge per step, dropping
	// the previous bridge, and finally drops the last bridge: that graph is
	// the Open-time one, a whole-plan hit.
	sizes := []int{6, 7}
	stream := func(size int) (deltas [][2][]graph.Edge) {
		var prev []graph.Edge
		for i := 0; i < 6; i++ {
			bridge := []graph.Edge{graph.NewEdge(i%size, size+(i+1)%size)}
			deltas = append(deltas, [2][]graph.Edge{bridge, prev})
			prev = bridge
		}
		return append(deltas, [2][]graph.Edge{nil, prev})
	}
	run := func(sess *Session, deltas [][2][]graph.Edge) ([]DeltaResult, error) {
		var out []DeltaResult
		for _, d := range deltas {
			res, err := sess.ApplyDelta(ctx, d[0], d[1])
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
		return out, nil
	}

	alone := make([][]DeltaResult, len(graphs))
	for i, g := range graphs {
		sess := mustOpen(t, g, SessionOptions{TotalBudget: 1, Cache: core.NewPlanCache(64)})
		res, err := run(sess, stream(sizes[i]))
		if err != nil {
			t.Fatal(err)
		}
		if last := res[len(res)-1]; !last.PlanCacheHit || last.SubPlanHits != 0 || last.SubPlanMisses != 0 {
			t.Fatalf("graph %d: return to the Open-time graph reported %+v, want a whole-plan hit with 0/0", i, last)
		}
		alone[i] = res
	}

	cache := core.NewPlanCache(64)
	sessions := make([]*Session, len(graphs))
	for i, g := range graphs {
		sessions[i] = mustOpen(t, g, SessionOptions{TotalBudget: 1, Cache: cache})
	}
	var wg sync.WaitGroup
	together := make([][]DeltaResult, len(graphs))
	errs := make([]error, len(graphs)+1)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			together[i], errs[i] = run(sessions[i], stream(sizes[i]))
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[len(graphs)] = Open(ctx, third, SessionOptions{TotalBudget: 1, Cache: cache})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := range graphs {
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("graph %d: concurrent deltas reported\n%+v\nalone they report\n%+v", i, together[i], alone[i])
		}
	}
}
