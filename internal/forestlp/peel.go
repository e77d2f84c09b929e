package forestlp

import (
	"math"

	"nodedp/internal/graph"
	"nodedp/internal/unionfind"
)

// peel performs the exact leaf-elimination preprocessing: in the LP of
// Definition 3.1 there is always an optimum in which a pendant edge
// e = (v,u) (v of degree 1) carries weight t = min(1, cap_v, cap_u).
//
// Exchange argument: raising x_e is blocked only by u's degree budget (the
// pair constraint caps x_e at 1, v's budget at cap_v, and every subtour set
// S ∋ u,v satisfies x(E[S]) = x(E[S∖v]) + x_e ≤ (|S|−2) + x_e, which is
// within |S|−1 whenever x_e ≤ 1); if u's budget binds, weight can be
// shifted from another u-edge onto e without changing the objective or
// violating any constraint. Fixing x_e = t is therefore lossless, and the
// residual problem is the same LP on G−v with u's budget reduced by t.
//
// Vertices whose budget reaches (numerically) zero force all their incident
// edges to zero, so those edges are deleted. Iterating to a fixed point
// strips the entire tree-like fringe, leaving the 2-core (or less) —
// typically a fraction of a sparse component — plus the exactly accounted
// weight `fixed`.
//
// Every deletion removes all remaining edges of one vertex (a zero-budget
// vertex, or a leaf's single edge), so an edge survives exactly when
// neither endpoint was stripped that way: peel marks vertices, not edges,
// and keeps each vertex's residual degree. Each vertex's adjacency is
// walked O(1) times, so peeling is O(n·passes + m) even on a hub.
//
// peel does not modify sub. It returns the residual graph's pieces, its
// connected parts with at least two vertices (see residualPieces), the
// per-vertex residual budgets in sub's numbering, and the fixed weight.
func peel(sub *graph.Graph, delta float64) (pieces []piece, caps []float64, fixed float64) {
	const eps = 1e-12
	n := sub.N()
	caps = uniformCaps(n, delta)
	deg := make([]int, n)
	for v := range deg {
		deg[v] = sub.Degree(v)
	}
	stripped := make([]bool, n)
	strip := func(v int) {
		stripped[v], deg[v] = true, 0
		sub.VisitNeighbors(v, func(w int) bool {
			if !stripped[w] {
				deg[w]--
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if caps[v] <= eps && deg[v] > 0 {
				strip(v)
				changed = true
			}
		}
		for v := 0; v < n; v++ {
			if deg[v] != 1 {
				continue
			}
			u := -1
			sub.VisitNeighbors(v, func(w int) bool {
				if !stripped[w] {
					u = w
				}
				return u < 0
			})
			t := math.Min(1, math.Min(caps[v], caps[u]))
			if t < 0 {
				t = 0
			}
			fixed += t
			caps[u] -= t
			strip(v)
			changed = true
		}
	}
	return residualPieces(sub, stripped), caps, fixed
}

// piece is one connected part of a shard that goes to the LP, with its
// vertices renumbered by rank: orig maps piece ids to shard ids.
type piece struct {
	sub  *graph.Graph
	orig []int
}

// residualPieces returns the connected components with at least two
// vertices of sub minus the stripped vertices, ordered by smallest vertex,
// each the induced subgraph of its sorted vertex set — what
// ComponentSets and InducedSubgraph return on the residual graph.
func residualPieces(sub *graph.Graph, stripped []bool) []piece {
	n := sub.N()
	label := make([]int, n)
	for v := range label {
		label[v] = -1
	}
	var sizes []int
	var stack []int
	for s := 0; s < n; s++ {
		if stripped[s] || label[s] >= 0 {
			continue
		}
		id := len(sizes)
		label[s] = id
		size := 1
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sub.VisitNeighbors(u, func(w int) bool {
				if !stripped[w] && label[w] < 0 {
					label[w] = id
					size++
					stack = append(stack, w)
				}
				return true
			})
		}
		sizes = append(sizes, size)
	}
	sets := make([][]int, len(sizes))
	for v, id := range label {
		if id >= 0 && sizes[id] >= 2 {
			sets[id] = append(sets[id], v)
		}
	}
	var pieces []piece
	for _, set := range sets {
		if set == nil {
			continue
		}
		psub, orig, err := sub.InducedSubgraph(set)
		if err != nil {
			panic(err) // component sets are always valid
		}
		pieces = append(pieces, piece{sub: psub, orig: orig})
	}
	return pieces
}

// uniformCaps returns n copies of delta (the no-peel budget vector).
func uniformCaps(n int, delta float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = delta
	}
	return caps
}

// primalCappedForestBound greedily builds a forest respecting the integer
// parts of the budgets and returns its edge count — the value of a feasible
// 0/1 point of the LP, hence a lower bound on the piece's optimum. Used to
// certify stalled cutting-plane runs.
func primalCappedForestBound(sub *graph.Graph, caps []float64) int {
	n := sub.N()
	intCaps := make([]int, n)
	for v := range intCaps {
		c := int(math.Floor(caps[v] + 1e-9))
		if c < 0 {
			c = 0
		}
		intCaps[v] = c
	}
	deg := make([]int, n)
	dsu := unionfind.New(n)
	count := 0
	// Two passes: first edges whose endpoints have generous headroom, then
	// anything that still fits — a cheap approximation of the max-edge
	// capped forest.
	for pass := 0; pass < 2; pass++ {
		for _, e := range sub.Edges() {
			if deg[e.U] >= intCaps[e.U] || deg[e.V] >= intCaps[e.V] {
				continue
			}
			if pass == 0 && (intCaps[e.U]-deg[e.U] < 2 || intCaps[e.V]-deg[e.V] < 2) {
				continue
			}
			if !dsu.Union(e.U, e.V) {
				continue
			}
			deg[e.U]++
			deg[e.V]++
			count++
		}
	}
	return count
}
