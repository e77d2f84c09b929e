package experiments

import (
	"context"
	"fmt"

	"nodedp/internal/dptest"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
)

// E12PrivacyAudit empirically audits the end-to-end Algorithm 1 on
// adversarial node-neighbor pairs: the estimated privacy loss ε̂ must stay
// at or below the configured ε (up to sampling slack). The audit is a
// lower-bound test — it catches bugs, it does not prove privacy.
func E12PrivacyAudit(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "empirical privacy audit of Algorithm 1",
		Claim:   "Definition 1.2: ε-node-privacy end to end",
		Columns: []string{"pair", "eps", "samples", "eps-hat", "pass"},
	}
	samples := 6000
	if cfg.Quick {
		samples = 2000
	}
	pairs := []struct {
		name string
		a, b *graph.Graph
	}{
		// The paper's own hard pair: an independent set vs its cone.
		{"I_6 vs K_{1,6}", graph.New(6), generate.Star(6)},
		// A matching vs the same matching with one endpoint deleted.
		{"M_8 vs M_8−v", generate.Matching(8), generate.Matching(8).RemoveVertex(0)},
		// A path vs the path with an articulation vertex deleted.
		{"P_9 vs P_9−mid", generate.Path(9), generate.Path(9).RemoveVertex(4)},
	}
	eps := 1.0
	for i, p := range pairs {
		for _, discrete := range []bool{false, true} {
			name := p.name
			if discrete {
				name += " (discrete)"
			}
			// One session per input; each query is one ε-DP run.
			sessA, err := releaseSession(p.a, cfg.Seed*79+uint64(i), discrete)
			if err != nil {
				return nil, err
			}
			sessB, err := releaseSession(p.b, cfg.Seed*83+uint64(i), discrete)
			if err != nil {
				return nil, err
			}
			run := func(sess *serve.Session) func() float64 {
				return func() float64 {
					res, err := sess.SpanningForestSize(context.Background(), serve.QueryOptions{Epsilon: eps})
					if err != nil {
						panic(err)
					}
					return res.Value
				}
			}
			runA, runB := run(sessA), run(sessB)
			audit, err := dptest.Audit(runA, runB, dptest.Config{
				Samples: samples, BinWidth: 1.0, MinBinCount: samples / 100,
			})
			if err != nil {
				return nil, err
			}
			// Allowance: ε plus generous sampling slack.
			pass := audit.EpsHat <= eps*1.6
			t.AddRow(name, eps, samples, audit.EpsHat, pass)
		}
	}
	t.Notes = append(t.Notes,
		"eps-hat is a statistical lower bound on the realized privacy loss; pass requires eps-hat ≤ 1.6·ε",
		"(discrete) rows audit the integer release path (Options.DiscreteRelease)",
		fmt.Sprintf("bins of width 1, minimum bin count %d", samples/100))
	return t, nil
}
