// Package baseline implements the comparison estimators for the experiment
// suite (E10): what one would use for the number of connected components
// without the paper's machinery.
//
//   - EdgeDP: the trivial edge-private estimator (sensitivity 1 under edge
//     changes — Section 1.2 notes f_cc "is easy to release with additive
//     error Θ(1/ε)" under edge-privacy). It satisfies only edge-DP, a much
//     weaker guarantee than node-DP.
//   - NaiveNodeDP: the Laplace mechanism with the worst-case node
//     sensitivity of f_cc on n-vertex graphs, which is Θ(n) (one inserted
//     hub can connect everything). Node-private but useless — exactly the
//     obstacle described in the paper's introduction.
//   - FixedDeltaSF: the paper's extension with a FIXED Δ (no GEM): an
//     ablation showing what adaptive selection buys.
//   - Truncation: delete all vertices of degree > D, count components,
//     add Lap((D+1)/ε). This mirrors the max-degree-based approaches of
//     prior work, but the deterministic projection is NOT worst-case
//     node-private (one node can push many others across the threshold);
//     it is included as an accuracy yardstick only and is labeled
//     heuristic in every table.
//   - NonPrivate: the exact count, the reference for all error columns.
package baseline

import (
	"fmt"
	"math/rand/v2"

	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/mechanism"
)

// EdgeDPComponentCount releases f_cc + Lap(1/ε): ε-edge-private (NOT
// node-private).
func EdgeDPComponentCount(rng *rand.Rand, g *graph.Graph, eps float64) (float64, error) {
	return mechanism.LaplaceRelease(rng, float64(g.CountComponents()), 1, eps)
}

// NaiveNodeDPComponentCount releases f_cc + Lap(n/ε), the Laplace mechanism
// with the worst-case node sensitivity bound GS = n (inserting one vertex
// adjacent to everything collapses all components into one).
func NaiveNodeDPComponentCount(rng *rand.Rand, g *graph.Graph, eps float64) (float64, error) {
	n := g.N()
	if n == 0 {
		n = 1
	}
	return mechanism.LaplaceRelease(rng, float64(g.CountComponents()), float64(n), eps)
}

// FixedDeltaSF releases f_Δ(G) + Lap(Δ/ε) for a caller-chosen Δ: the
// paper's mechanism without the GEM selection step (the whole ε goes to the
// release). ε-node-private since f_Δ is Δ-Lipschitz (Lemma 3.3). When an LP
// piece of the evaluation stalled (forestlp.Stats.StalledPieces), the value
// is a relaxation bound that may exceed f_Δ and need not be Δ-Lipschitz, so
// FixedDeltaSF returns an error and releases nothing.
func FixedDeltaSF(rng *rand.Rand, g *graph.Graph, delta, eps float64, opts forestlp.Options) (float64, error) {
	v, st, err := forestlp.Value(g, delta, opts)
	if err != nil {
		return 0, err
	}
	if st.StalledPieces > 0 {
		return 0, fmt.Errorf("baseline: f_%v stalled on %d LP piece(s) with a gap of up to %v; refusing to release a relaxation bound",
			delta, st.StalledPieces, st.StallGap)
	}
	return mechanism.LaplaceRelease(rng, v, delta, eps)
}

// FixedDeltaComponentCountKnownN is FixedDeltaSF transported to f_cc via
// Equation (1) with a public vertex count.
func FixedDeltaComponentCountKnownN(rng *rand.Rand, g *graph.Graph, delta, eps float64, opts forestlp.Options) (float64, error) {
	v, err := FixedDeltaSF(rng, g, delta, eps, opts)
	if err != nil {
		return 0, err
	}
	return float64(g.N()) - v, nil
}

// Truncate returns the subgraph of g induced by the vertices of degree at
// most maxDeg (the deterministic degree projection used by the truncation
// baseline).
func Truncate(g *graph.Graph, maxDeg int) *graph.Graph {
	keep := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		keep[v] = g.Degree(v) <= maxDeg
	}
	sub, _, err := g.InducedSubgraphByMask(keep)
	if err != nil {
		panic(err) // mask length always matches
	}
	return sub
}

// TruncationComponentCount counts the components of the degree-≤D
// projection and adds Lap((D+1)/ε). HEURISTIC: the deterministic
// projection's node sensitivity is not bounded by D+1 in the worst case
// (removing one vertex can move many neighbors across the degree
// threshold), so this baseline does NOT carry a rigorous node-DP
// guarantee. It stands in for the max-degree-based approaches the paper
// compares against analytically (Section 1.2).
func TruncationComponentCount(rng *rand.Rand, g *graph.Graph, maxDeg int, eps float64) (float64, error) {
	if maxDeg < 0 {
		return 0, fmt.Errorf("baseline: maxDeg %d must be nonnegative", maxDeg)
	}
	t := Truncate(g, maxDeg)
	return mechanism.LaplaceRelease(rng, float64(t.CountComponents()), float64(maxDeg)+1, eps)
}

// NonPrivateComponentCount returns the exact f_cc, the reference value in
// every experiment table.
func NonPrivateComponentCount(g *graph.Graph) float64 {
	return float64(g.CountComponents())
}
