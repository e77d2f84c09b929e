package nodedp

// Separation-engine benchmarks and the BENCH_sep.json emitter: the
// intra-component cutting-plane engine measured on giant-component
// workloads, where shard-level parallelism (BENCH_parallel.json) has
// nothing to split and the oracle + simplex inner loop is everything.
//
// The emitter measures the one engine there is (the "parametric" rows:
// screened oracle, parked-cut revival, cross-Δ warm starts, and standing
// incremental solvers slid across the Δ grid). The engines it replaced are
// frozen in BENCH_sep_history.json, which nothing regenerates:
//
//	legacy — warm starts off, exhaustive oracle (one fresh max-flow per
//	         uncovered forced vertex per round, every LP from the
//	         all-slack basis);
//	cold   — warm starts off, screened oracle;
//	warm   — warm starts on, every LP rebuilt from rows.
//
// The JSON records max-flow calls and simplex pivots per Δ-grid evaluation
// (both deterministic, so they compare with the frozen rows on any
// machine), ns/op, bytes allocated per op, and the flow and pivot
// reductions against the frozen legacy and warm rows. It also certifies the determinism contract:
// seeded releases bit-identical across Workers ∈ {1,4,8}.

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// sepBenchFamily is one benchmark workload. Spider marks the
// hub-articulated families, whose hub-forced degree structure keeps the
// cutting-plane LP active across most of the Δ-grid — exactly the
// workload the parametric sweep exists for.
type sepBenchFamily struct {
	Name   string
	Graph  *graph.Graph
	Spider bool
}

// sepBenchFamilies are giant-component workloads: dense enough that the
// cutting-plane LP runs at several grid points, connected enough that the
// whole graph is (essentially) one shard.
func sepBenchFamilies() []sepBenchFamily {
	// Each family draws from its own source, and every instance is chosen
	// to converge (no stalled pieces).
	erRng := generate.NewRand(40)
	hubRng := generate.NewRand(41)
	return []sepBenchFamily{
		{Name: "planted-er-giant", Graph: generate.PlantedComponents([]int{120}, 6.0/120, erRng)},
		{Name: "hub-clusters-giant", Graph: generate.WithHubs(
			generate.PlantedComponents([]int{60, 60}, 5.0/60, hubRng), 3, 0.25, hubRng)},
		{Name: "spider-er-a", Graph: spiderGraph(40, 4, 5, 0.65, 54), Spider: true},
		{Name: "spider-er-b", Graph: spiderGraph(40, 4, 5, 0.65, 56), Spider: true},
	}
}

// spiderGraph builds a hub-articulated giant component: k small ER
// clusters, each tied to a central hub by exactly one bridge. The hub is
// the only inter-cluster connection, so every spanning forest carries all
// k bridges and the hub's degree is forced to k — f_Δ stays strictly below
// f_sf (and the LP stays active) until Δ reaches k, across a Δ range where
// the peel-stable piece recurs identically at every grid point. Mixed
// cluster sizes and random bridge endpoints break the symmetry that would
// otherwise make the LP degenerate.
func spiderGraph(k, minSize, spread int, p float64, seed uint64) *graph.Graph {
	rng := generate.NewRand(seed)
	sizes := make([]int, k)
	clusters := make([]*graph.Graph, k)
	for i := range clusters {
		sizes[i] = minSize + rng.IntN(spread)
		clusters[i] = generate.ErdosRenyi(sizes[i], p, rng)
	}
	g := generate.DisjointUnion(clusters...)
	hub := g.AddVertex()
	off := 0
	for i := 0; i < k; i++ {
		if err := g.AddEdge(hub, off+rng.IntN(sizes[i])); err != nil {
			panic(err)
		}
		off += sizes[i]
	}
	return g
}

// sepBenchOpts is the engine configuration every row measures: the
// defaults, on one worker so ns/op compares across machines.
var sepBenchOpts = forestlp.Options{Workers: 1}

// benchGridSweep runs one full Δ-grid evaluation per iteration.
func benchGridSweep(b *testing.B, g *graph.Graph, opts forestlp.Options) {
	b.Helper()
	plan := forestlp.NewPlan(g)
	grid, err := mechanism.PowerOfTwoGrid(float64(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.GridValues(ctx, grid, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeparationParametric sweeps the Δ-grid on the giant-component
// families.
func BenchmarkSeparationParametric(b *testing.B) {
	for _, f := range sepBenchFamilies() {
		b.Run(f.Name, func(b *testing.B) { benchGridSweep(b, f.Graph, sepBenchOpts) })
	}
}

// BenchmarkGridWarmStart measures the full private release (plan + Δ-grid
// + GEM + Laplace) on the giant ER family.
func BenchmarkGridWarmStart(b *testing.B) {
	g := sepBenchFamilies()[0].Graph
	opts := core.Options{Epsilon: 1, Rand: generate.NewRand(41)}
	opts.ForestLP.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateSpanningForestSize(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// sepBenchRecord is one row of BENCH_sep.json or BENCH_sep_history.json.
type sepBenchRecord struct {
	Family string `json:"family"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Config string `json:"config"`
	// Deterministic work counters for one full Δ-grid evaluation.
	MaxFlowCalls  int     `json:"max_flow_calls"`
	FlowsPerSolve float64 `json:"flows_per_lp_solve"`
	SimplexPivots int     `json:"simplex_pivots"`
	LPSolves      int     `json:"lp_solves"`
	CutsRevived   int     `json:"cuts_revived"`
	WarmBasisHits int     `json:"warm_basis_hits"`
	StalledPieces int     `json:"stalled_pieces"`
	// Parametric-engine depth counters.
	Refactorizations      int `json:"refactorizations,omitempty"`
	ParametricSlides      int `json:"parametric_slides,omitempty"`
	ParametricCheapSolves int `json:"parametric_cheap_solves,omitempty"`
	IncrementalFallbacks  int `json:"incremental_fallbacks,omitempty"`
	// Reductions vs. the family's frozen legacy row (full-matrix families
	// only) and frozen warm row. Work counters are deterministic, so these
	// hold on any machine; wall time is not compared with frozen rows.
	FlowReduction        float64 `json:"flow_reduction_vs_legacy,omitempty"`
	PivotReduction       float64 `json:"pivot_reduction_vs_legacy,omitempty"`
	PivotReductionVsWarm float64 `json:"pivot_reduction_vs_warm,omitempty"`
	NsPerOp              int64   `json:"ns_per_op"`
	// BytesPerOp is the heap allocated per Δ-grid evaluation (absent from
	// the frozen rows).
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	// ReleasesBitIdentical certifies that a seeded release is bit-for-bit
	// equal across Workers ∈ {1,4,8}.
	ReleasesBitIdentical bool `json:"releases_bit_identical"`
	MaxProcs             int  `json:"gomaxprocs"`
}

// sepBenchHistory loads the frozen legacy/cold/warm rows, keyed by family
// and config.
func sepBenchHistory(t *testing.T) map[[2]string]sepBenchRecord {
	t.Helper()
	raw, err := os.ReadFile("BENCH_sep_history.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []sepBenchRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	hist := make(map[[2]string]sepBenchRecord, len(recs))
	for _, r := range recs {
		hist[[2]string{r.Family, r.Config}] = r
	}
	return hist
}

// sepReleaseBitIdentical runs a seeded end-to-end release on g at every
// Workers ∈ {1,4,8}, which also sizes the separation oracle's pool, and
// reports whether all are bit-equal.
func sepReleaseBitIdentical(t *testing.T, g *graph.Graph) bool {
	t.Helper()
	var want float64
	for i, workers := range []int{1, 4, 8} {
		opts := core.Options{Epsilon: 1, Rand: generate.NewRand(42)}
		opts.ForestLP.Workers = workers
		res, err := core.EstimateComponentCount(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Value
		} else if math.Float64bits(res.Value) != math.Float64bits(want) {
			return false
		}
	}
	return true
}

// TestEmitSepBenchJSON writes BENCH_sep.json. Opt-in like the other
// emitters (it spins real benchmarks):
//
//	NODEDP_BENCH_JSON=1 go test -run TestEmitSepBenchJSON .
func TestEmitSepBenchJSON(t *testing.T) {
	if os.Getenv("NODEDP_BENCH_JSON") == "" {
		t.Skip("set NODEDP_BENCH_JSON=1 to emit BENCH_sep.json")
	}
	hist := sepBenchHistory(t)
	var records []sepBenchRecord
	for _, f := range sepBenchFamilies() {
		plan := forestlp.NewPlan(f.Graph)
		grid, err := mechanism.PowerOfTwoGrid(float64(f.Graph.N()))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := plan.GridValues(context.Background(), grid, sepBenchOpts)
		if err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) { benchGridSweep(b, f.Graph, sepBenchOpts) })
		rec := sepBenchRecord{
			Family:                f.Name,
			N:                     f.Graph.N(),
			M:                     f.Graph.M(),
			Config:                "parametric",
			MaxFlowCalls:          stats.MaxFlowCalls,
			SimplexPivots:         stats.SimplexPivots,
			LPSolves:              stats.LPSolves,
			CutsRevived:           stats.CutsRevived,
			WarmBasisHits:         stats.WarmBasisHits,
			StalledPieces:         stats.StalledPieces,
			Refactorizations:      stats.Refactorizations,
			ParametricSlides:      stats.ParametricSlides,
			ParametricCheapSolves: stats.ParametricCheapSolves,
			IncrementalFallbacks:  stats.IncrementalFallbacks,
			NsPerOp:               r.NsPerOp(),
			BytesPerOp:            r.AllocedBytesPerOp(),
			ReleasesBitIdentical:  sepReleaseBitIdentical(t, f.Graph),
			MaxProcs:              runtime.GOMAXPROCS(0),
		}
		if stats.LPSolves > 0 {
			rec.FlowsPerSolve = float64(stats.MaxFlowCalls) / float64(stats.LPSolves)
		}
		legacy, haveLegacy := hist[[2]string{f.Name, "legacy"}]
		warm, haveWarm := hist[[2]string{f.Name, "warm"}]
		if haveLegacy {
			if rec.MaxFlowCalls > 0 {
				rec.FlowReduction = float64(legacy.MaxFlowCalls) / float64(rec.MaxFlowCalls)
			} else if legacy.MaxFlowCalls > 0 {
				rec.FlowReduction = math.Inf(1)
			}
			if legacy.SimplexPivots > 0 {
				rec.PivotReduction = 1 - float64(rec.SimplexPivots)/float64(legacy.SimplexPivots)
			}
		}
		if warm.SimplexPivots > 0 {
			rec.PivotReductionVsWarm = 1 - float64(rec.SimplexPivots)/float64(warm.SimplexPivots)
		}
		records = append(records, rec)

		// Acceptance bars against the frozen rows. On every family the
		// engine must never pivot more than warm did. On the spiders — the
		// LP-across-the-grid workload the parametric sweep targets — it
		// must pivot at most 0.6× warm while actually sliding bases. On
		// the other families it must make at most half the legacy max-flow
		// calls and at most 0.7× the legacy pivots. Every family must
		// converge with bit-identical seeded releases.
		if !haveWarm {
			t.Errorf("%s: no frozen warm row in BENCH_sep_history.json", f.Name)
		} else if rec.SimplexPivots > warm.SimplexPivots {
			t.Errorf("%s: %d pivots > frozen warm %d", f.Name, rec.SimplexPivots, warm.SimplexPivots)
		}
		switch {
		case f.Spider:
			if float64(rec.SimplexPivots) > 0.6*float64(warm.SimplexPivots) {
				t.Errorf("%s: %d pivots > 0.6 × frozen warm %d", f.Name, rec.SimplexPivots, warm.SimplexPivots)
			}
			if rec.ParametricSlides == 0 {
				t.Errorf("%s: parametric engine never slid a basis", f.Name)
			}
		case !haveLegacy:
			t.Errorf("%s: no frozen legacy row in BENCH_sep_history.json", f.Name)
		default:
			if 2*rec.MaxFlowCalls > legacy.MaxFlowCalls {
				t.Errorf("%s: %d max-flow calls > frozen legacy %d / 2", f.Name, rec.MaxFlowCalls, legacy.MaxFlowCalls)
			}
			if float64(rec.SimplexPivots) > 0.7*float64(legacy.SimplexPivots) {
				t.Errorf("%s: %d pivots > 0.7 × frozen legacy %d", f.Name, rec.SimplexPivots, legacy.SimplexPivots)
			}
		}
		if rec.StalledPieces > 0 {
			t.Errorf("%s: %d stalled pieces — bench families must converge, pick another instance",
				f.Name, rec.StalledPieces)
		}
		if !rec.ReleasesBitIdentical {
			t.Errorf("%s: seeded releases not bit-identical across Workers", f.Name)
		}
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sep.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_sep.json (%d records)", len(records))
}
