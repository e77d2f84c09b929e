package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
	"nodedp/internal/spanning"
)

// E14LPScaling profiles the cutting-plane evaluator's work as the input
// grows: LP solves, cuts, max-flow calls, simplex pivots and fast-path
// hits, counters that do not depend on the machine. It substantiates the
// "polynomial time" claim of Theorem 1.3 for the simplex-based substitute
// for the ellipsoid method (see the forestlp package doc); the engine's
// timings live in BENCH_*.json and perfbench.
func E14LPScaling(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "cutting-plane evaluator scaling (Δ=2, ER c=2 giant component)",
		Claim:   "Lemma 3.3(2): f_Δ computable in polynomial time",
		Columns: []string{"n", "m", "LP-solves", "cuts", "maxflow-calls", "pivots", "fastpath-hits"},
	}
	ns := []int{50, 100, 200, 400}
	if cfg.Quick {
		ns = []int{40, 80, 160}
	}
	for _, n := range ns {
		rng := generate.NewRand(cfg.Seed*89 + uint64(n))
		g := generate.ErdosRenyi(n, 2/float64(n), rng)
		_, stats, err := forestlp.Value(g, 2, forestlp.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, g.M(), stats.LPSolves, stats.CutsAdded, stats.MaxFlowCalls,
			stats.SimplexPivots, stats.FastPathHits)
	}
	t.Notes = append(t.Notes, "columns should grow polynomially (and modestly) with n")
	return t, nil
}

// F1RepairTrace reproduces Figure 1: a deterministic walk-through of
// Algorithm 3's local repairs on a worked example. The trace lines double
// as the output of examples/repairdemo.
func F1RepairTrace(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F1",
		Title:   "local repair walk-through (Figure 1)",
		Claim:   "Algorithm 3 / Claim 4.1: repairs move along a path and terminate",
		Columns: []string{"step", "action"},
	}
	g, trace, forest, witness, err := RepairDemoGraph(2)
	if err != nil {
		return nil, err
	}
	for i, line := range trace {
		t.AddRow(i+1, line)
	}
	switch {
	case witness != nil:
		t.Notes = append(t.Notes, fmt.Sprintf("blocked with witness %+v", witness))
	case forest != nil:
		t.Notes = append(t.Notes, fmt.Sprintf(
			"final spanning forest (max degree %d ≤ Δ=2): %v",
			graph.MaxDegreeOfEdgeSet(g.N(), forest), forest))
	}
	if !strings.Contains(strings.Join(trace, "\n"), "repair at") {
		t.Notes = append(t.Notes, "UNEXPECTED: demo graph triggered no repairs")
	}
	return t, nil
}

// RepairDemoGraph builds the worked example used by F1 and by
// examples/repairdemo: a wheel-ish graph whose BFS insertion order forces
// at least one local repair at the given Δ, plus the traced run.
func RepairDemoGraph(delta int) (*graph.Graph, []string, []graph.Edge, *spanning.Star, error) {
	// Triangle fan: center 0 adjacent to 1..5, with consecutive leaves
	// adjacent (a fan). s(G) < 3 ... the fan has induced 2-stars only at
	// the rim ends, so a spanning 2-forest exists but the naive insertion
	// piles degree onto the center, forcing repairs.
	g := graph.New(6)
	edges := []graph.Edge{
		graph.NewEdge(0, 1), graph.NewEdge(0, 2), graph.NewEdge(0, 3),
		graph.NewEdge(0, 4), graph.NewEdge(0, 5),
		graph.NewEdge(1, 2), graph.NewEdge(2, 3), graph.NewEdge(3, 4),
		graph.NewEdge(4, 5),
	}
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	var trace []string
	forest, witness, err := spanning.RepairWithTrace(g, delta, func(s string) {
		trace = append(trace, s)
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return g, trace, forest, witness, nil
}

// EpsilonSweep is a supplementary table: error of Algorithm 1 versus ε on a
// fixed geometric graph, validating the 1/ε scaling of Theorem 1.3.
func EpsilonSweep(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "error versus ε on a fixed geometric graph",
		Claim:   "Theorem 1.3: error scales as 1/ε",
		Columns: []string{"eps", "median|err|", "p95|err|", "median·eps"},
	}
	n := 300
	trials := 10
	if cfg.Quick {
		n = 120
		trials = 5
	}
	g := generate.Geometric(n, 1.2/math.Sqrt(float64(n)), generate.NewRand(cfg.Seed*97))
	fsf := float64(g.SpanningForestSize())
	for _, eps := range []float64{0.25, 0.5, 1, 2, 4} {
		sess, err := releaseSession(g, cfg.Seed*101+uint64(eps*100), false)
		if err != nil {
			return nil, err
		}
		var errs []float64
		for s := 0; s < trials; s++ {
			res, err := sess.SpanningForestSize(context.Background(), serve.QueryOptions{Epsilon: eps})
			if err != nil {
				return nil, err
			}
			errs = append(errs, absErr(res.Value, fsf))
		}
		med := percentile(errs, 0.5)
		t.AddRow(eps, med, percentile(errs, 0.95), med*eps)
	}
	t.Notes = append(t.Notes, "median·eps should be roughly constant")
	return t, nil
}
