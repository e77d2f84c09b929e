package serve

// Property tests for the live-graph mutation keystone: after any
// ApplyDelta, the session must be indistinguishable — bit-for-bit, in
// released values AND in deterministic work counters — from a session
// cold-opened on the already-mutated graph, across the full option matrix
// (Workers × SepWorkers × warm-start × incremental engine), with and
// without a plan cache as the sub-plan store, and across component merges
// and splits.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
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

// statsEqual compares two work-counter sets, ignoring the wall-clock
// shard diagnostics (the only nondeterministic field; disabled here
// anyway, but it makes the struct non-comparable).
func statsEqual(a, b forestlp.Stats) bool {
	a.Shards, b.Shards = nil, nil
	return reflect.DeepEqual(a, b)
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
	if !statsEqual(live.Stats, cold.Stats) {
		t.Errorf("%s: work counters diverge:\n delta-open: %+v\n cold-open:  %+v", label, live.Stats, cold.Stats)
	}
}

// assertMatchesColdOpen cross-checks the mutated session against cold
// opens of want — one planning through a fresh plan cache, one with no
// cache at all (a nil sub-plan store) — and compares fingerprints,
// plan-level work counters, and seeded releases of every query type.
func assertMatchesColdOpen(t *testing.T, live *Session, want *graph.Graph, fl forestlp.Options) {
	t.Helper()
	ctx := context.Background()
	liveGE := live.snap.Load().ge

	for _, variant := range []struct {
		name  string
		cache *core.PlanCache
	}{
		{"cold-cached", core.NewPlanCache(8)},
		{"cold-uncached", nil},
	} {
		cold := mustOpen(t, want, SessionOptions{TotalBudget: 100, Cache: variant.cache, ForestLP: fl})
		coldGE := cold.snap.Load().ge
		if liveGE.Fingerprint() != coldGE.Fingerprint() {
			t.Fatalf("%s: fingerprint %v != %v", variant.name, liveGE.Fingerprint(), coldGE.Fingerprint())
		}
		if !statsEqual(liveGE.Stats(), coldGE.Stats()) {
			t.Errorf("%s: plan work counters diverge:\n delta-open: %+v\n cold-open:  %+v",
				variant.name, liveGE.Stats(), coldGE.Stats())
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
				bitEqualResults(t, fmt.Sprintf("%s/%s seed %d", variant.name, name, seed), lr, cr)
			}
		}
	}
}

// TestDeltaOpenBitIdenticalToColdOpen drives one merge delta and one split
// delta through every (Workers, SepWorkers) combination; Workers > 1
// spreads a sweep's components across the pool. The subtest names keep
// their nowarm=false,noincr=false suffix so results stay comparable with
// earlier runs of the same matrix.
// The planted blocks 0-7, 8-15, 16-23 are edge-disjoint, so edge {0, 8}
// is a guaranteed bridge: adding it merges two components, removing it
// again splits them.
func TestDeltaOpenBitIdenticalToColdOpen(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	bridge := graph.NewEdge(0, 8)
	dropped := g.Edges()[0] // an intra-block edge to remove alongside the merge

	for _, sep := range []int{1, 8} {
		t.Run(fmt.Sprintf("sep=%d,nowarm=false,noincr=false", sep), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				fl := forestlp.Options{Workers: workers, SepWorkers: sep}
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
					assertMatchesColdOpen(t, live, g1, fl)

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
					assertMatchesColdOpen(t, live, g2, fl)

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
