package forestlp

// Conformance between the tracing attribution and the Stats the engine
// reports: the counters a sweep span exports must equal the Stats returned
// to the caller — same source of truth, two views — and instrumentation
// must not perturb the computed values.

import (
	"context"
	"math"
	"strconv"
	"testing"

	"nodedp/internal/generate"
	"nodedp/internal/obs"
)

func TestGridSpanCountersEqualStats(t *testing.T) {
	g := generate.PlantedComponents([]int{40, 25}, 4.0/40, generate.NewRand(11))
	p := NewPlan(g)
	grid := warmTestGrid(t, g)

	tr := obs.NewTrace("test", 1)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	// Two workers, so both shards' jobs add counters concurrently.
	clean, _, err := p.GridValues(context.Background(), grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced, st, err := NewPlan(g).GridValues(ctx, grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr.Root().End()

	// Instrumentation must be invisible to the release path.
	for i := range grid {
		if math.Float64bits(traced[i]) != math.Float64bits(clean[i]) {
			t.Fatalf("grid[%d]: traced sweep %v != untraced %v", i, traced[i], clean[i])
		}
	}

	snap := tr.Snapshot()
	sweep, ok := snap.Find("forestlp.grid")
	if !ok {
		t.Fatalf("no forestlp.grid span in\n%s", snap.Tree())
	}
	want := statCounters(st)
	want["grid_points"] = int64(len(grid))
	got := spanCounters(sweep)
	for key, w := range want {
		if got[key] != w {
			t.Errorf("sweep counter %s = %d, Stats say %d", key, got[key], w)
		}
	}
	if st.LPSolves == 0 && st.FastPathHits == 0 {
		t.Fatal("workload did no attributable work — the comparison tested nothing")
	}

	// Per-point child spans: one per grid Δ, each labeled with its Δ.
	points := 0
	for _, sp := range snap.Spans {
		if sp.Name == "forestlp.point" {
			points++
		}
	}
	if points != len(grid) {
		t.Fatalf("%d forestlp.point spans for a %d-point grid", points, len(grid))
	}

	// Each point span, in grid order, carries exactly its Δ's Stats as a
	// point-by-point run over one warm state reports them, and the lp
	// counters of the solves run at that Δ.
	ref := NewPlan(g)
	warm := newGridWarm(ref)
	j := 0
	for _, sp := range snap.Spans {
		if sp.Name != "forestlp.point" {
			continue
		}
		_, _, pst, err := ref.point(context.Background(), grid[j], Options{Workers: 1}, warm)
		if err != nil {
			t.Fatal(err)
		}
		counters := spanCounters(sp)
		want := statCounters(pst)
		want["lp_solves"] = int64(pst.LPSolves)
		for key, w := range want {
			if counters[key] != w {
				t.Errorf("point %d (Δ=%v): span counter %s = %d, Stats say %d", j, grid[j], key, counters[key], w)
			}
		}
		if got := counters["lp_pivots"] + counters["lp_warm_pivots"]; got != int64(pst.SimplexPivots) {
			t.Errorf("point %d (Δ=%v): span lp pivots %d, Stats say %d", j, grid[j], got, pst.SimplexPivots)
		}
		label := ""
		for _, l := range sp.Labels {
			if l.Key == "delta" {
				label = l.Value
			}
		}
		if want := strconv.FormatFloat(grid[j], 'g', -1, 64); label != want {
			t.Errorf("point %d: delta label %q, want %q", j, label, want)
		}
		j++
	}
}

// statCounters is the span attribution setStatAttrs gives st.
func statCounters(st Stats) map[string]int64 {
	return map[string]int64{
		"components":            int64(st.Components),
		"fast_path_hits":        int64(st.FastPathHits),
		"lp_solves_total":       int64(st.LPSolves),
		"cuts_added":            int64(st.CutsAdded),
		"max_flow_calls":        int64(st.MaxFlowCalls),
		"simplex_pivots":        int64(st.SimplexPivots),
		"warm_cuts_reused":      int64(st.WarmCutsReused),
		"warm_basis_hits":       int64(st.WarmBasisHits),
		"parametric_slides":     int64(st.ParametricSlides),
		"incremental_fallbacks": int64(st.IncrementalFallbacks),
	}
}

// spanCounters maps a span's counter attributes by key.
func spanCounters(sp obs.SpanSnapshot) map[string]int64 {
	out := map[string]int64{}
	for _, a := range sp.Counters {
		out[a.Key] = a.Value
	}
	return out
}
