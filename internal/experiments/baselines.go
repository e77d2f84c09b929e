package experiments

import (
	"context"
	"fmt"
	"math"

	"nodedp/internal/baseline"
	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
	"nodedp/internal/spanning"
)

// E10Baselines compares Algorithm 1 against the baselines across graph
// families, including the hub-augmented family where every max-degree-based
// approach collapses while Δ* stays tiny.
func E10Baselines(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "mean |error| of f_cc estimators (ε=1, known n)",
		Claim: "intro/§1.2: noise calibrated to Δ* (adaptively, via GEM) beats calibrating to n or to a guessed Δ",
		Columns: []string{
			"family", "n", "f_cc", "maxdeg", "Δ*≤", "ours", "edge-DP", "naive-node", "fixed-Δ=maxdeg", "trunc(D=8)",
		},
	}
	eps := 1.0
	n := 300
	trials := 10
	if cfg.Quick {
		n = 120
		trials = 5
	}
	families := []struct {
		name string
		gen  func(seed uint64) *graph.Graph
	}{
		{"matching", func(s uint64) *graph.Graph { return generate.Matching(n / 2) }},
		{"matching+hubs", func(s uint64) *graph.Graph {
			// Hubs BRIDGE the pairs, so Δ* genuinely rises to ≈ pairs/hubs:
			// the paper's guarantee pays that, and correctly so (the hub's
			// removal really does change f_sf by that much).
			return generate.WithHubs(generate.Matching(n/2), 3, 0.5, generate.NewRand(cfg.Seed*53+s))
		}},
		{"path+hubs", func(s uint64) *graph.Graph {
			// Hubs over a connected base are pure shortcuts: max degree
			// explodes, Δ* stays ≈ 2 — the dramatic-win regime.
			return generate.WithHubs(generate.Path(n), 3, 0.5, generate.NewRand(cfg.Seed*57+s))
		}},
		{"er(c=1)", func(s uint64) *graph.Graph {
			return generate.ErdosRenyi(n, 1/float64(n), generate.NewRand(cfg.Seed*59+s))
		}},
		{"geometric", func(s uint64) *graph.Graph {
			return generate.Geometric(n, 1.0/math.Sqrt(float64(n)), generate.NewRand(cfg.Seed*61+s))
		}},
	}
	for _, f := range families {
		var ours, edge, naive, trunc, fixed []float64
		var fcc, maxdeg, deltaUB float64
		for s := uint64(0); s < uint64(trials); s++ {
			g := f.gen(s)
			fcc = float64(g.CountComponents())
			maxdeg = float64(g.MaxDegree())
			_, d := spanning.LowDegreeSpanningForest(g)
			deltaUB = float64(d)
			rng := generate.NewRand(cfg.Seed*67 + s*11 + 5)

			res, err := core.EstimateComponentCountKnownN(g, core.Options{Epsilon: eps, Rand: rng})
			if err != nil {
				return nil, err
			}
			ours = append(ours, absErr(res.Value, fcc))

			e, err := baseline.EdgeDPComponentCount(rng, g, eps)
			if err != nil {
				return nil, err
			}
			edge = append(edge, absErr(e, fcc))

			nv, err := baseline.NaiveNodeDPComponentCount(rng, g, eps)
			if err != nil {
				return nil, err
			}
			naive = append(naive, absErr(nv, fcc))

			fv, err := baseline.FixedDeltaComponentCountKnownN(rng, g, maxdeg, eps, forestlp.Options{})
			if err != nil {
				return nil, err
			}
			fixed = append(fixed, absErr(fv, fcc))

			tv, err := baseline.TruncationComponentCount(rng, g, 8, eps)
			if err != nil {
				return nil, err
			}
			trunc = append(trunc, absErr(tv, fcc))
		}
		t.AddRow(f.name, n, fcc, maxdeg, deltaUB, mean(ours), mean(edge), mean(naive), mean(fixed), mean(trunc))
	}
	t.Notes = append(t.Notes,
		"all of {ours, naive-node, fixed-Δ=maxdeg} are rigorously node-private; edge-DP is a weaker guarantee and trunc is a heuristic without one (see internal/baseline)",
		"expected shape: ours tracks Δ*, beating naive (scale n) everywhere and fixed-Δ=maxdeg wherever Δ* ≪ maxdeg (hubs); edge-DP is the accuracy ceiling at its weaker guarantee")
	return t, nil
}

// E11GEM measures how well the Generalized Exponential Mechanism selects Δ̂
// (Theorem 3.5): the realized err(Δ̂) versus the best fixed choice, and the
// agreement of Δ̂ with the Δ* upper bound.
func E11GEM(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "GEM selection quality (ε=1)",
		Claim:   "Theorem 3.5: err(Δ̂) ≤ O(ln(ln n/β))·min_Δ err(Δ)",
		Columns: []string{"family", "n", "Δ*≤", "mode(Δ̂)", "mean err(Δ̂)/err(opt)", "max ratio"},
	}
	eps := 1.0
	n := 200
	trials := 30
	if cfg.Quick {
		n = 100
		trials = 12
	}
	families := []struct {
		name string
		gen  func() *graph.Graph
	}{
		{"matching", func() *graph.Graph { return generate.Matching(n / 2) }},
		{"caterpillar", func() *graph.Graph { return generate.Caterpillar(n/5, 4) }},
		{"geometric", func() *graph.Graph {
			return generate.Geometric(n, 1.2/math.Sqrt(float64(n)), generate.NewRand(cfg.Seed*71))
		}},
	}
	for _, f := range families {
		g := f.gen()
		_, dUB := spanning.LowDegreeSpanningForest(g)
		sess, err := releaseSession(g, cfg.Seed*73+7, false)
		if err != nil {
			return nil, err
		}
		var chosen, ratios []float64
		for s := 0; s < trials; s++ {
			res, err := sess.SpanningForestSize(context.Background(), serve.QueryOptions{Epsilon: eps})
			if err != nil {
				return nil, err
			}
			chosen = append(chosen, res.Delta)
			best := math.Inf(1)
			for _, ev := range res.Evaluations {
				if ev.Q < best {
					best = ev.Q
				}
			}
			for _, ev := range res.Evaluations {
				if ev.Delta == res.Delta {
					ratios = append(ratios, ev.Q/best)
				}
			}
		}
		modeDelta, modeCount := mode(chosen)
		t.AddRow(f.name, n, dUB, fmt.Sprintf("%.0f (%d/%d)", modeDelta, modeCount, trials),
			mean(ratios), maxFloat(ratios))
	}
	t.Notes = append(t.Notes, "ratios near 1 mean GEM almost always picks a near-optimal Δ")
	return t, nil
}
