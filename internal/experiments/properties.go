package experiments

import (
	"fmt"
	"math"
	"math/big"

	"nodedp/internal/downsens"
	"nodedp/internal/enumerate"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/lipschitz"
	"nodedp/internal/spanning"
)

const propTol = 1e-5

// E1ExtensionProperties validates Lemma 3.3 / Definition 3.2 empirically:
// the forest-polytope extensions underestimate f_sf, are monotone in Δ, and
// are Δ-Lipschitz across node neighbors.
func E1ExtensionProperties(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Lipschitz extension properties of f_Δ",
		Claim:   "Lemma 3.3: underestimation, monotonicity in Δ, Δ-Lipschitzness",
		Columns: []string{"family", "graphs", "checks", "violations"},
	}
	trials := 40
	maxN := 12
	if cfg.Quick {
		trials = 12
		maxN = 9
	}
	fam := lipschitz.ForestLP{}
	deltas := []float64{1, 2, 4}
	families := []struct {
		name string
		gen  func(seed uint64) *graph.Graph
	}{
		{"erdos-renyi", func(s uint64) *graph.Graph {
			rng := generate.NewRand(cfg.Seed*1000 + s)
			return generate.ErdosRenyi(2+rng.IntN(maxN-1), 0.15+0.5*rng.Float64(), rng)
		}},
		{"geometric", func(s uint64) *graph.Graph {
			rng := generate.NewRand(cfg.Seed*2000 + s)
			return generate.Geometric(2+rng.IntN(maxN-1), 0.35, rng)
		}},
		{"structured", func(s uint64) *graph.Graph {
			switch s % 4 {
			case 0:
				return generate.Star(3 + int(s%5))
			case 1:
				return generate.Path(3 + int(s%6))
			case 2:
				return generate.Complete(3 + int(s%4))
			default:
				return generate.Cycle(3 + int(s%5))
			}
		}},
	}
	for _, f := range families {
		checks, violations := 0, 0
		for s := uint64(0); s < uint64(trials); s++ {
			g := f.gen(s)
			viol, err := lipschitz.CheckProperties(fam, g, deltas, propTol)
			if err != nil {
				return nil, err
			}
			checks += len(deltas) * (2 + g.N()) // under+mono per delta, lip per vertex
			violations += len(viol)
		}
		t.AddRow(f.name, trials, checks, violations)
	}
	t.Notes = append(t.Notes, "expected: zero violations in every row")
	return t, nil
}

// E2AnchorSets validates Lemma 3.3(1) and Lemma 1.9: a spanning Δ-forest
// forces f_Δ = f_sf, and DS_fsf(G) ≤ Δ−1 lands G in the anchor set S_Δ.
func E2AnchorSets(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "anchor sets of f_Δ",
		Claim:   "Lemma 3.3(1) and Lemma 1.9: S*_{Δ−1} ⊆ S_Δ",
		Columns: []string{"delta", "graphs", "anchored(DS≤Δ-1)", "f_Δ=f_sf", "violations"},
	}
	trials := 60
	if cfg.Quick {
		trials = 20
	}
	for _, delta := range []int{1, 2, 3, 4} {
		graphs, anchored, equal, viol := 0, 0, 0, 0
		for s := uint64(0); s < uint64(trials); s++ {
			rng := generate.NewRand(cfg.Seed*3000 + uint64(delta)*97 + s)
			g := generate.ErdosRenyi(2+rng.IntN(9), 0.1+0.5*rng.Float64(), rng)
			graphs++
			ds, err := downsens.SpanningForestDownSensitivity(g, 0)
			if err != nil {
				return nil, err
			}
			v, _, err := forestlp.Value(g, float64(delta), forestlp.Options{})
			if err != nil {
				return nil, err
			}
			isEqual := math.Abs(v-float64(g.SpanningForestSize())) <= propTol
			if isEqual {
				equal++
			}
			if ds <= delta-1 {
				anchored++
				if !isEqual {
					viol++
				}
			}
		}
		t.AddRow(delta, graphs, anchored, equal, viol)
	}
	t.Notes = append(t.Notes, "violations counts graphs with DS ≤ Δ−1 but f_Δ ≠ f_sf; expected 0")
	return t, nil
}

// E8LipschitzTightness reproduces Remark 3.4: the empty graph on Δ vertices
// and its cone (the star K_{1,Δ}) witness |f_Δ(G)−f_Δ(G')| = Δ across one
// node insertion.
func E8LipschitzTightness(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "tightness of the Lipschitz constant",
		Claim:   "Remark 3.4: f_Δ(independent set)=0, f_Δ(its cone)=Δ",
		Columns: []string{"delta", "f_Δ(I_Δ)", "f_Δ(K_{1,Δ})", "gap", "tight"},
	}
	deltas := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		deltas = []int{1, 2, 4, 8}
	}
	for _, d := range deltas {
		iso := graph.New(d)
		vIso, _, err := forestlp.Value(iso, float64(d), forestlp.Options{})
		if err != nil {
			return nil, err
		}
		cone := generate.Star(d)
		vCone, _, err := forestlp.Value(cone, float64(d), forestlp.Options{})
		if err != nil {
			return nil, err
		}
		gap := vCone - vIso
		t.AddRow(d, vIso, vCone, gap, math.Abs(gap-float64(d)) <= propTol)
	}
	return t, nil
}

// E9Optimality validates the Theorem 1.11 implication with the Lemma A.1
// down-extension as the competing (Δ−1)-Lipschitz function:
// Err_G(f_Δ) > 0 ⟹ Err_G(f_Δ) ≤ 2·Err_G(f̂_{Δ−1}) − 1.
func E9Optimality(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "2-competitiveness of f_Δ (ℓ∞ error over induced subgraphs)",
		Claim:   "Theorem 1.11 via the F_{Δ−1} witness f̂_{Δ−1} (Lemma A.1)",
		Columns: []string{"delta", "graphs", "erring", "bound-holds", "max Err(f_Δ)", "max 2·Err(f̂)−1"},
	}
	trials := 25
	maxN := 7
	if cfg.Quick {
		trials = 10
		maxN = 6
	}
	forest := lipschitz.ForestLP{}
	generic := lipschitz.DownSensitivity{F: func(h *graph.Graph) float64 {
		return float64(h.SpanningForestSize())
	}, FName: "fsf"}
	for _, delta := range []float64{2, 3} {
		graphs, erring, holds := 0, 0, 0
		maxOurs, maxBound := 0.0, 0.0
		for s := uint64(0); s < uint64(trials); s++ {
			rng := generate.NewRand(cfg.Seed*4000 + uint64(delta)*131 + s)
			g := generate.ErdosRenyi(2+rng.IntN(maxN-1), 0.3+0.4*rng.Float64(), rng)
			graphs++
			ours, err := lipschitz.ErrG(forest, g, delta)
			if err != nil {
				return nil, err
			}
			if ours <= propTol {
				continue
			}
			erring++
			ref, err := lipschitz.ErrG(generic, g, delta-1)
			if err != nil {
				return nil, err
			}
			bound := 2*ref - 1
			if ours <= bound+propTol {
				holds++
			}
			if ours > maxOurs {
				maxOurs = ours
			}
			if bound > maxBound {
				maxBound = bound
			}
		}
		t.AddRow(delta, graphs, erring, fmt.Sprintf("%d/%d", holds, erring), maxOurs, maxBound)
	}
	t.Notes = append(t.Notes, "bound-holds should equal erring in every row")
	return t, nil
}

// E13GenericExtension validates Lemma A.1 / Theorem A.2 behavior of the
// generic down-sensitivity extension for f_sf on small graphs: anchoring at
// DS ≤ Δ and the Definition 3.2 properties.
func E13GenericExtension(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "generic down-sensitivity extension (Lemma A.1)",
		Claim:   "anchor at DS_f(G) ≤ Δ; Definition 3.2 properties",
		Columns: []string{"graphs", "anchor-checks", "anchor-violations", "property-violations"},
	}
	trials := 30
	if cfg.Quick {
		trials = 12
	}
	fam := lipschitz.DownSensitivity{F: func(h *graph.Graph) float64 {
		return float64(h.SpanningForestSize())
	}, FName: "fsf"}
	anchorChecks, anchorViol, propViol := 0, 0, 0
	for s := uint64(0); s < uint64(trials); s++ {
		rng := generate.NewRand(cfg.Seed*5000 + s)
		g := generate.ErdosRenyi(1+rng.IntN(7), 0.2+0.5*rng.Float64(), rng)
		ds, err := lipschitz.DownSensitivityOf(g, fam.F)
		if err != nil {
			return nil, err
		}
		delta := ds
		if delta < 1 {
			delta = 1
		}
		v, err := fam.Eval(g, delta)
		if err != nil {
			return nil, err
		}
		anchorChecks++
		if math.Abs(v-fam.Target(g)) > propTol {
			anchorViol++
		}
		viol, err := lipschitz.CheckProperties(fam, g, []float64{1, 2, 4}, propTol)
		if err != nil {
			return nil, err
		}
		propViol += len(viol)
	}
	t.AddRow(trials, anchorChecks, anchorViol, propViol)
	t.Notes = append(t.Notes,
		"uses the unconstrained inf-convolution; the paper's literal DS-restricted variant can overestimate F(G) when DS_F(G) > Δ (a 7-vertex graph with f_sf = 6 and DS = 3 has a restricted f̂_2 of 7; see lipschitz.DownSensitivity)")
	return t, nil
}

// F2Lemma52 validates Lemma 5.2 on exhaustively generated small graphs with
// no spanning Δ-forest: some proper induced subgraph H satisfies
// f_Δ(G) ≥ f_sf(H) + (Δ−1)·d(G,H) + 1.
func F2Lemma52(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F2",
		Title:   "error attribution to induced subgraphs (Lemma 5.2)",
		Claim:   "∃ H ≺ G: f_Δ(G) ≥ f_sf(H) + (Δ−1)d(G,H) + 1 when G has no spanning Δ-forest",
		Columns: []string{"delta", "graphs-without-Δ-forest", "witness-found", "violations"},
	}
	trials := 40
	maxN := 8
	if cfg.Quick {
		trials = 15
		maxN = 7
	}
	for _, delta := range []int{1, 2, 3} {
		count, witnessed, viol := 0, 0, 0
		for s := uint64(0); s < uint64(trials); s++ {
			rng := generate.NewRand(cfg.Seed*6000 + uint64(delta)*173 + s)
			g := generate.ErdosRenyi(2+rng.IntN(maxN-1), 0.3+0.4*rng.Float64(), rng)
			has, exceeded := spanning.HasSpanningForestMaxDegree(g, delta, 0)
			if exceeded || has {
				continue
			}
			count++
			fd, _, err := forestlp.Value(g, float64(delta), forestlp.Options{})
			if err != nil {
				return nil, err
			}
			if lemma52WitnessExists(g, delta, fd) {
				witnessed++
			} else {
				viol++
			}
		}
		t.AddRow(delta, count, witnessed, viol)
	}
	t.Notes = append(t.Notes, "violations expected 0")
	return t, nil
}

// lemma52WitnessExists checks all proper induced subgraphs H of g for
// inequality (8).
func lemma52WitnessExists(g *graph.Graph, delta int, fd float64) bool {
	n := g.N()
	for mask := 0; mask < 1<<n; mask++ {
		size := 0
		var verts []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				size++
				verts = append(verts, v)
			}
		}
		if size == n { // proper subgraphs only
			continue
		}
		sub, _, err := g.InducedSubgraph(verts)
		if err != nil {
			return false
		}
		rhs := float64(sub.SpanningForestSize()) + float64((delta-1)*(n-size)) + 1
		if fd >= rhs-propTol {
			return true
		}
	}
	return false
}

// F3WinDecomposition exhaustively validates Win's lemma (Lemma 5.1): every
// graph on ≤ maxN vertices without a spanning Δ-forest admits an (S, X)
// decomposition satisfying the lemma's three conditions.
func F3WinDecomposition(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F3",
		Title:   "Win's decomposition (Lemma 5.1), exhaustive",
		Claim:   "no spanning Δ-forest ⟹ ∃ (S, X): S has a spanning Δ-tree, X separates, f_cc(S∖X) ≥ |X|(Δ−2)+2",
		Columns: []string{"delta", "n", "classes", "without-Δ-forest", "decomposed", "violations"},
	}
	maxN := 6
	if cfg.Quick {
		maxN = 5
	}
	for _, delta := range []int{2, 3} {
		classes, without, decomposed, viol := 0, 0, 0, 0
		if err := enumerate.AllNonIsomorphic(maxN, func(g *graph.Graph) bool {
			classes++
			has, exceeded := spanning.HasSpanningForestMaxDegree(g, delta, 0)
			if exceeded || has {
				return true
			}
			without++
			w, err := spanning.FindWinDecomposition(g, delta, 0)
			if err != nil || w == nil {
				viol++
				return true
			}
			decomposed++
			return true
		}); err != nil {
			return nil, err
		}
		t.AddRow(delta, maxN, classes, without, decomposed, viol)
	}
	t.Notes = append(t.Notes, "violations expected 0; decomposed should equal without-Δ-forest")
	return t, nil
}

// RationalCrossCheck re-validates a few cutting-plane values against the
// exact rational LP; used by cmd/experiments as a self-test preamble.
func RationalCrossCheck(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E0",
		Title:   "float vs exact-rational LP cross-check",
		Claim:   "numerical soundness of the cutting-plane evaluator",
		Columns: []string{"instances", "max |float − exact|"},
	}
	trials := 8
	if cfg.Quick {
		trials = 4
	}
	worst := 0.0
	for s := uint64(0); s < uint64(trials); s++ {
		rng := generate.NewRand(cfg.Seed*7000 + s)
		g := generate.ErdosRenyi(2+rng.IntN(6), 0.5, rng)
		for _, d := range []int64{1, 2} {
			got, _, err := forestlp.Value(g, float64(d), forestlp.Options{})
			if err != nil {
				return nil, err
			}
			exact, err := forestlp.ValueBruteForceRat(g, big.NewRat(d, 1))
			if err != nil {
				return nil, err
			}
			ef, _ := exact.Float64()
			if diff := math.Abs(got - ef); diff > worst {
				worst = diff
			}
		}
	}
	t.AddRow(trials*2, worst)
	return t, nil
}
