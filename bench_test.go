package nodedp

// This file wires every experiment of the reproduction suite
// (internal/experiments, ids in its Registry) to a `go test -bench`
// target, plus micro-benchmarks for the individual substrates. The
// experiment benches run the same drivers as cmd/experiments in quick
// mode; their value is (a) regenerating each table and (b) tracking the
// wall-clock cost of the whole pipeline over time.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one table with timing:
//
//	go test -bench=BenchmarkE4 -benchmem

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/downsens"
	"nodedp/internal/experiments"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
	"nodedp/internal/spanning"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := runner(cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE0RationalCrossCheck(b *testing.B)  { benchExperiment(b, "E0") }
func BenchmarkE1ExtensionProperties(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2AnchorSets(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3MainAlgorithm(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4ErdosRenyi(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5Geometric(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6DownSensitivity(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7LocalRepair(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8LipschitzTightness(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9Optimality(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Baselines(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11GEM(b *testing.B)                { benchExperiment(b, "E11") }
func BenchmarkE12PrivacyAudit(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13GenericExtension(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14LPScaling(b *testing.B)          { benchExperiment(b, "E14") }
func BenchmarkE15EpsilonSweep(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkF1RepairTrace(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2Lemma52(b *testing.B)             { benchExperiment(b, "F2") }
func BenchmarkF3WinDecomposition(b *testing.B)    { benchExperiment(b, "F3") }

// ---------------------------------------------------------------------------
// Micro-benchmarks: the substrates in isolation.

// BenchmarkExtensionGeometric measures one f_Δ evaluation on a geometric
// graph (the paper's best case: spanning 6-forests exist, so the fast path
// dominates).
func BenchmarkExtensionGeometric(b *testing.B) {
	g := generate.Geometric(400, 1.2/math.Sqrt(400), generate.NewRand(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := forestlp.Value(g, 4, forestlp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionLPPath measures f_Δ where the LP genuinely runs
// (Δ below the component's Δ*).
func BenchmarkExtensionLPPath(b *testing.B) {
	g := generate.ErdosRenyi(150, 2.0/150, generate.NewRand(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := forestlp.Value(g, 2, forestlp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithm1EndToEnd measures a full private release (grid
// evaluation + GEM + Laplace) on a sparse ER graph.
func BenchmarkAlgorithm1EndToEnd(b *testing.B) {
	g := generate.ErdosRenyi(200, 1.5/200, generate.NewRand(3))
	rng := generate.NewRand(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateSpanningForestSize(g, core.Options{Epsilon: 1, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair measures Algorithm 3 on a dense-ish random graph.
func BenchmarkRepair(b *testing.B) {
	g := generate.ErdosRenyi(500, 8.0/500, generate.NewRand(7))
	star, err := downsens.MaxInducedStar(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	delta := star.Size + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forest, witness, err := spanning.Repair(g, delta)
		if err != nil || witness != nil || forest == nil {
			b.Fatalf("repair failed: %v %v", err, witness)
		}
	}
}

// BenchmarkMaxInducedStar measures the exact s(G) computation on a
// geometric graph.
func BenchmarkMaxInducedStar(b *testing.B) {
	g := generate.Geometric(500, 1.2/math.Sqrt(500), generate.NewRand(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := downsens.MaxInducedStar(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowDegreeSpanningForest measures the Δ* upper-bound heuristic.
func BenchmarkLowDegreeSpanningForest(b *testing.B) {
	g := generate.ErdosRenyi(400, 3.0/400, generate.NewRand(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanning.LowDegreeSpanningForest(g)
	}
}

// BenchmarkComponents measures the plain f_cc substrate.
func BenchmarkComponents(b *testing.B) {
	g := generate.ErdosRenyi(5000, 1.0/5000, generate.NewRand(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountComponents()
	}
}

// BenchmarkCSRSnapshot measures building the immutable CSR snapshot plus
// its per-component shard decomposition — the planning cost the engine
// pays once per graph and then amortizes across the whole Δ-grid.
func BenchmarkCSRSnapshot(b *testing.B) {
	g := generate.ErdosRenyi(5000, 2.0/5000, generate.NewRand(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr := graph.NewCSR(g)
		csr.ComponentShards()
	}
}

// ---------------------------------------------------------------------------
// Parallel evaluation engine: serial vs. worker-pool benchmarks and the
// machine-readable BENCH_parallel.json emitter.

// parallelBenchFamilies are multi-component workloads for the engine
// benchmarks. Each family yields many independent component LPs, so the
// worker pool has real parallelism to exploit; "planted-er" is LP-heavy
// (Δ=2 defeats the fast path on dense-ish clusters), "geometric-multi" is
// fast-path-heavy (the engine's overhead floor), and "hub-clusters" mixes
// the two.
func parallelBenchFamilies() []struct {
	Name  string
	Graph *graph.Graph
	Delta float64
} {
	rng := generate.NewRand(20)
	planted := make([]int, 16)
	for i := range planted {
		planted[i] = 30
	}
	hubbed := generate.WithHubs(
		generate.PlantedComponents([]int{40, 40, 40, 40}, 2.0/40, rng), 2, 0.1, rng)
	return []struct {
		Name  string
		Graph *graph.Graph
		Delta float64
	}{
		{"planted-er", generate.PlantedComponents(planted, 3.2/30, rng), 2},
		{"hub-clusters", hubbed, 2},
		{"geometric-multi", generate.Geometric(1200, 0.9/math.Sqrt(1200), rng), 4},
	}
}

// benchEngine runs one plan evaluation per iteration at a fixed worker
// count (0 = GOMAXPROCS).
func benchEngine(b *testing.B, g *graph.Graph, delta float64, workers int) {
	b.Helper()
	plan := forestlp.NewPlan(g)
	opts := forestlp.Options{Workers: workers}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := plan.Value(ctx, delta, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSerial and BenchmarkEngineParallel compare the sharded
// evaluator at Workers=1 against the full worker pool on every family.
// With ≥4 cores the LP-heavy families show the headline speedup; on a
// single-core machine the two are within noise of each other, which bounds
// the engine's coordination overhead.
func BenchmarkEngineSerial(b *testing.B) {
	for _, f := range parallelBenchFamilies() {
		b.Run(f.Name, func(b *testing.B) { benchEngine(b, f.Graph, f.Delta, 1) })
	}
}

func BenchmarkEngineParallel(b *testing.B) {
	for _, f := range parallelBenchFamilies() {
		b.Run(f.Name, func(b *testing.B) { benchEngine(b, f.Graph, f.Delta, 0) })
	}
}

// BenchmarkAlgorithm1Workers measures the full private release end to end
// (plan + Δ-grid + GEM + Laplace) at both ends of the worker range.
func BenchmarkAlgorithm1Workers(b *testing.B) {
	g := generate.PlantedComponents([]int{30, 30, 30, 30, 30, 30, 30, 30}, 3.0/30, generate.NewRand(21))
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{Epsilon: 1, Rand: generate.NewRand(22)}
			opts.ForestLP.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EstimateSpanningForestSize(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelBenchRecord is one row of BENCH_parallel.json.
type parallelBenchRecord struct {
	Family   string  `json:"family"`
	N        int     `json:"n"`
	M        int     `json:"m"`
	Shards   int     `json:"shards"`
	Delta    float64 `json:"delta"`
	Workers  int     `json:"workers"`
	NsPerOp  int64   `json:"ns_per_op"`
	Speedup  float64 `json:"speedup_vs_serial"`
	MaxProcs int     `json:"gomaxprocs"`
}

// TestEmitParallelBenchJSON writes BENCH_parallel.json: serial vs. parallel
// ns/op for every benchmark family, to seed the performance trajectory
// across PRs. It is opt-in (it spins real benchmarks), so plain `go test`
// stays fast:
//
//	NODEDP_BENCH_JSON=1 go test -run TestEmitParallelBenchJSON .
func TestEmitParallelBenchJSON(t *testing.T) {
	if os.Getenv("NODEDP_BENCH_JSON") == "" {
		t.Skip("set NODEDP_BENCH_JSON=1 to emit BENCH_parallel.json")
	}
	var records []parallelBenchRecord
	for _, f := range parallelBenchFamilies() {
		plan := forestlp.NewPlan(f.Graph)
		var serialNs int64
		for _, workers := range []int{1, 0} {
			r := testing.Benchmark(func(b *testing.B) {
				benchEngine(b, f.Graph, f.Delta, workers)
			})
			ns := r.NsPerOp()
			speedup := 1.0
			if workers == 1 {
				serialNs = ns
			} else if ns > 0 {
				speedup = float64(serialNs) / float64(ns)
			}
			records = append(records, parallelBenchRecord{
				Family:   f.Name,
				N:        f.Graph.N(),
				M:        f.Graph.M(),
				Shards:   plan.Shards(),
				Delta:    f.Delta,
				Workers:  workers,
				NsPerOp:  ns,
				Speedup:  speedup,
				MaxProcs: runtime.GOMAXPROCS(0),
			})
		}
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_parallel.json (%d records)", len(records))
}

// ---------------------------------------------------------------------------
// Session serving: throughput benchmarks and the BENCH_session.json emitter.

// sessionBenchGraph is the serving workload: many components with real LP
// work at small Δ, so the one-time plan is expensive relative to a query.
func sessionBenchGraph() *graph.Graph { return sessionBenchBlocks(12) }

// sessionBenchBlocks plants the given number of 30-vertex blocks.
func sessionBenchBlocks(blocks int) *graph.Graph {
	sizes := make([]int, blocks)
	for i := range sizes {
		sizes[i] = 30
	}
	return generate.PlantedComponents(sizes, 3.0/30, generate.NewRand(30))
}

// BenchmarkSessionOpenCold measures Open without a plan cache: the full
// snapshot + shard plan + Δ-grid cost a serving deployment pays once per
// distinct graph.
func BenchmarkSessionOpenCold(b *testing.B) {
	g := sessionBenchGraph()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionOpenCached measures Open against a warm plan cache: just
// the CSR snapshot + fingerprint + lookup.
func BenchmarkSessionOpenCached(b *testing.B) {
	g := sessionBenchGraph()
	ctx := context.Background()
	cache := core.NewPlanCache(4)
	if _, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1, Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionQuery measures one amortized budget-accounted query
// (admission + GEM + Laplace) on an open session.
func BenchmarkSessionQuery(b *testing.B) {
	g := sessionBenchGraph()
	ctx := context.Background()
	sess, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ComponentCount(ctx, serve.QueryOptions{Epsilon: 0.5, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionDeltaEdge is the i-th edge of a long non-repeating bridge stream
// between the first two blocks of sessionBenchGraph (30×30 distinct
// bridges before the stream cycles), so consecutive mutated graphs have
// distinct fingerprints and each delta measures a genuine component
// re-plan rather than a whole-plan cache cycle hit.
func sessionDeltaEdge(i int) graph.Edge {
	return graph.NewEdge(i%30, 30+(i/30)%30)
}

// BenchmarkSessionDelta measures one live-graph mutation on an open
// session: apply a bridge edge (dropping the previous one), re-plan the
// two touched components through the sub-plan cache, and atomically swap
// the serving snapshot. The ten untouched components are reused verbatim —
// compare BenchmarkSessionDeltaColdReopen for what the delta replaces.
func BenchmarkSessionDelta(b *testing.B) { benchmarkSessionDelta(b, sessionBenchGraph()) }

// BenchmarkSessionDeltaLarge is BenchmarkSessionDelta on 700 planted
// 30-vertex blocks (n = 21,000): the same bridge stream touches the same
// two blocks, so a delta whose graph work is O(touched + #components)
// costs about what it costs on twelve blocks.
func BenchmarkSessionDeltaLarge(b *testing.B) { benchmarkSessionDelta(b, sessionBenchBlocks(700)) }

// benchmarkSessionDelta opens a cached session on g and applies the
// sessionDeltaEdge stream to it, one delta per iteration.
func benchmarkSessionDelta(b *testing.B, g *graph.Graph) {
	ctx := context.Background()
	sess, err := serve.Open(ctx, g, serve.SessionOptions{TotalBudget: 1, Cache: core.NewPlanCache(4)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adds := []graph.Edge{sessionDeltaEdge(i)}
		var removes []graph.Edge
		if i > 0 {
			removes = append(removes, sessionDeltaEdge(i-1))
		}
		if _, err := sess.ApplyDelta(ctx, adds, removes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionDeltaColdReopen measures the alternative a mutating
// deployment had before deltas: rebuild the mutated graph and cold-open a
// fresh session on it, re-planning every component from scratch.
func BenchmarkSessionDeltaColdReopen(b *testing.B) {
	g := sessionBenchGraph()
	ctx := context.Background()
	// Two prebuilt states (bridge present / absent): cold opens run with no
	// cache, so alternating graphs cannot be served by any cache cycle.
	withBridge := func() *graph.Graph {
		edges := append(g.Edges(), sessionDeltaEdge(0))
		mg, err := graph.FromEdges(g.N(), edges)
		if err != nil {
			b.Fatal(err)
		}
		return mg
	}()
	states := []*graph.Graph{withBridge, g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serve.Open(ctx, states[i%2], serve.SessionOptions{TotalBudget: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// sessionBenchRecord is one row of BENCH_session.json.
type sessionBenchRecord struct {
	Scenario      string  `json:"scenario"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	NsPerOp       int64   `json:"ns_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	Amortization  float64 `json:"amortization_vs_one_shot,omitempty"`
	// ColdAmortization (delta-apply row) is how many times cheaper one
	// live-graph delta is than cold re-opening the mutated graph.
	ColdAmortization float64 `json:"amortization_vs_cold_open,omitempty"`
	MaxProcs         int     `json:"gomaxprocs"`
}

// TestEmitSessionBenchJSON writes BENCH_session.json: the cost of a cold
// open, a cache-served open, one amortized session query, and one one-shot
// estimate, to track the serving layer's throughput across PRs. Opt-in like
// the parallel emitter:
//
//	NODEDP_BENCH_JSON=1 go test -run TestEmitSessionBenchJSON .
func TestEmitSessionBenchJSON(t *testing.T) {
	if os.Getenv("NODEDP_BENCH_JSON") == "" {
		t.Skip("set NODEDP_BENCH_JSON=1 to emit BENCH_session.json")
	}
	g := sessionBenchGraph()
	large := sessionBenchBlocks(700)
	scenarios := []struct {
		name string
		run  func(b *testing.B)
		// n and m size the benchmark's graph, when not sessionBenchGraph.
		n, m int
	}{
		{name: "open-cold", run: BenchmarkSessionOpenCold},
		{name: "open-cached", run: BenchmarkSessionOpenCached},
		{name: "session-query", run: BenchmarkSessionQuery},
		{name: "delta-apply", run: BenchmarkSessionDelta},
		{name: "delta-apply-large", run: BenchmarkSessionDeltaLarge, n: large.N(), m: large.M()},
		{name: "delta-cold-reopen", run: BenchmarkSessionDeltaColdReopen},
		{name: "one-shot", run: func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := core.Options{Epsilon: 0.5, Rand: generate.NewRand(uint64(i) + 1)}
				if _, err := core.EstimateComponentCountCtx(ctx, g, opts); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	ns := make(map[string]int64, len(scenarios))
	var records []sessionBenchRecord
	for _, sc := range scenarios {
		r := testing.Benchmark(sc.run)
		ns[sc.name] = r.NsPerOp()
		rec := sessionBenchRecord{
			Scenario: sc.name,
			N:        g.N(),
			M:        g.M(),
			NsPerOp:  r.NsPerOp(),
			MaxProcs: runtime.GOMAXPROCS(0),
		}
		if sc.n > 0 {
			rec.N, rec.M = sc.n, sc.m
		}
		if sc.name == "session-query" && r.NsPerOp() > 0 {
			rec.QueriesPerSec = 1e9 / float64(r.NsPerOp())
		}
		records = append(records, rec)
	}
	// Amortization: how many session queries fit in one one-shot estimate,
	// and how many live-graph deltas fit in one cold re-open.
	for i := range records {
		if records[i].Scenario == "session-query" && records[i].NsPerOp > 0 {
			records[i].Amortization = float64(ns["one-shot"]) / float64(records[i].NsPerOp)
		}
		if records[i].Scenario == "delta-apply" && records[i].NsPerOp > 0 {
			records[i].ColdAmortization = float64(ns["delta-cold-reopen"]) / float64(records[i].NsPerOp)
		}
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_session.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_session.json (%d records)", len(records))
}
