package forestlp

import (
	"fmt"
	"math/big"

	"nodedp/internal/graph"
	"nodedp/internal/lp"
)

// This file provides ground-truth evaluators for f_Δ on small graphs: the
// full LP with every subtour constraint written out explicitly, solved
// either in float64 or in exact rational arithmetic. They exist to certify
// the cutting-plane evaluator in tests and experiments.
//
// Only CONNECTED vertex subsets need constraints: for a disconnected S with
// connected parts S_1..S_k, x(E[S]) = Σ x(E[S_i]) ≤ Σ(|S_i|−1) ≤ |S|−1.

// maxBruteVertices caps per-component brute-force size; beyond this the
// constraint enumeration explodes.
const maxBruteVertices = 16

// ValueBruteForce computes f_Δ(G) by explicit constraint enumeration and
// the float64 simplex. Components must have at most maxBruteVertices
// vertices.
func ValueBruteForce(g *graph.Graph, delta float64) (float64, error) {
	total := 0.0
	for _, comp := range g.ComponentSets() {
		if len(comp) < 2 {
			continue
		}
		if len(comp) > maxBruteVertices {
			return 0, fmt.Errorf("forestlp: brute force component size %d > %d", len(comp), maxBruteVertices)
		}
		sub, _, err := g.InducedSubgraph(comp)
		if err != nil {
			panic(err)
		}
		sets, rhs := explicitConstraints(sub, delta)
		var rows lp.Rows
		for _, set := range sets {
			rows.Add(set, nil)
		}
		c := make([]float64, sub.M())
		for i := range c {
			c[i] = 1
		}
		sol, err := lp.Maximize(c, rows, rhs, lp.Options{})
		if err != nil {
			return 0, err
		}
		if sol.Status != lp.Optimal {
			return 0, fmt.Errorf("forestlp: brute force LP status %v", sol.Status)
		}
		total += sol.Value
	}
	return total, nil
}

// ValueBruteForceRat is ValueBruteForce in exact rational arithmetic.
func ValueBruteForceRat(g *graph.Graph, delta *big.Rat) (*big.Rat, error) {
	total := new(big.Rat)
	for _, comp := range g.ComponentSets() {
		if len(comp) < 2 {
			continue
		}
		if len(comp) > maxBruteVertices {
			return nil, fmt.Errorf("forestlp: brute force component size %d > %d", len(comp), maxBruteVertices)
		}
		sub, _, err := g.InducedSubgraph(comp)
		if err != nil {
			panic(err)
		}
		deltaF, _ := delta.Float64()
		sets, rhs := explicitConstraints(sub, deltaF)
		m := sub.M()
		cr := make([]*big.Rat, m)
		for i := range cr {
			cr[i] = big.NewRat(1, 1)
		}
		ar := make([][]*big.Rat, len(sets))
		br := make([]*big.Rat, len(sets))
		for i, set := range sets {
			ar[i] = make([]*big.Rat, m)
			for j := range ar[i] {
				ar[i][j] = new(big.Rat)
			}
			for _, j := range set {
				ar[i][j].SetInt64(1)
			}
			br[i] = lp.RatFromFloat(rhs[i])
		}
		// Replace the degree rows' rhs with the exact delta.
		for i := 0; i < sub.N(); i++ {
			br[i] = new(big.Rat).Set(delta)
		}
		sol, err := lp.MaximizeRat(cr, ar, br, 0)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("forestlp: brute force rational LP status %v", sol.Status)
		}
		total.Add(total, sol.Value)
	}
	return total, nil
}

// explicitConstraints lists the explicit program's 0/1 rows as ascending
// edge-index sets: the degree rows (first n rows, rhs delta), then one
// subtour row per connected vertex subset of size ≥ 2.
func explicitConstraints(sub *graph.Graph, delta float64) ([][]int32, []float64) {
	n := sub.N()
	edges := sub.Edges()
	var sets [][]int32
	var rhs []float64
	for v := 0; v < n; v++ {
		var set []int32
		for i, e := range edges {
			if e.U == v || e.V == v {
				set = append(set, int32(i))
			}
		}
		sets = append(sets, set)
		rhs = append(rhs, delta)
	}
	for mask := 1; mask < 1<<n; mask++ {
		size := popcount(mask)
		if size < 2 || !connectedMask(sub, mask) {
			continue
		}
		var set []int32
		for i, e := range edges {
			if mask&(1<<e.U) != 0 && mask&(1<<e.V) != 0 {
				set = append(set, int32(i))
			}
		}
		sets = append(sets, set)
		rhs = append(rhs, float64(size-1))
	}
	return sets, rhs
}

// connectedMask reports whether the vertices in mask induce a connected
// subgraph of sub.
func connectedMask(sub *graph.Graph, mask int) bool {
	start := -1
	count := 0
	for v := 0; v < sub.N(); v++ {
		if mask&(1<<v) != 0 {
			if start == -1 {
				start = v
			}
			count++
		}
	}
	if count == 0 {
		return false
	}
	seen := 1 << start
	stack := []int{start}
	visited := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range sub.Neighbors(u) {
			bit := 1 << w
			if mask&bit != 0 && seen&bit == 0 {
				seen |= bit
				visited++
				stack = append(stack, w)
			}
		}
	}
	return visited == count
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
