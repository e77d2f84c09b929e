// Package spanning implements the spanning-forest machinery of the paper:
//
//   - Algorithm 3 "local repairs" (the constructive proof of Lemma 1.8): a
//     graph with no induced Δ-star has a spanning Δ-forest, and Repair
//     builds one — or returns an induced Δ-star witness if none exists.
//   - A degree-greedy Kruskal forest and a degree-reducing local search
//     over spanning forests (Fürer–Raghavachari-style single swaps) used
//     to estimate Δ*, the smallest possible maximum degree of a spanning
//     forest, which parameterizes the paper's accuracy guarantee
//     (Theorem 1.3). With per-vertex caps, the same greedy and search are
//     forestlp's fast-path certificates.
//   - Exact brute-force Δ* for small graphs, the ground truth for tests and
//     for the experiment tables on tiny inputs. (Computing Δ* exactly in
//     general is NP-hard: it generalizes the Hamiltonian-path problem.)
package spanning

import (
	"fmt"
	"slices"

	"nodedp/internal/graph"
)

// Star is an induced star witness: Center is adjacent in G to every vertex
// of Leaves, and Leaves is an independent set. |Leaves| is the star size.
type Star struct {
	Center int
	Leaves []int
}

// forest is a small mutable forest used by the repair loop and the local
// searches: adj[v] lists v's forest neighbors in increasing order.
type forest struct {
	adj [][]int
}

func newForest(n int) *forest {
	return &forest{adj: make([][]int, n)}
}

func (f *forest) add(u, v int) {
	i, found := slices.BinarySearch(f.adj[u], v)
	if found {
		return
	}
	f.adj[u] = slices.Insert(f.adj[u], i, v)
	j, _ := slices.BinarySearch(f.adj[v], u)
	f.adj[v] = slices.Insert(f.adj[v], j, u)
}

func (f *forest) remove(u, v int) {
	if i, ok := slices.BinarySearch(f.adj[u], v); ok {
		f.adj[u] = slices.Delete(f.adj[u], i, i+1)
	}
	if j, ok := slices.BinarySearch(f.adj[v], u); ok {
		f.adj[v] = slices.Delete(f.adj[v], j, j+1)
	}
}

func (f *forest) has(u, v int) bool {
	_, ok := slices.BinarySearch(f.adj[u], v)
	return ok
}

func (f *forest) degree(v int) int { return len(f.adj[v]) }

// edges returns the forest's edge list, sorted. It is never nil, so a
// successful Repair on an edgeless graph is distinguishable from failure.
func (f *forest) edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(f.adj))
	for u, nbrs := range f.adj {
		i, _ := slices.BinarySearch(nbrs, u)
		for _, v := range nbrs[i:] {
			out = append(out, graph.Edge{U: u, V: v})
		}
	}
	return out
}

// Repair runs the constructive proof of Lemma 1.8 (Algorithm 3). If G has
// no induced Δ-star (s(G) < Δ), it returns a spanning Δ-forest of G. If the
// repair loop gets blocked, it returns an induced Δ-star witness instead —
// a certificate that s(G) ≥ Δ and hence (Lemma 1.7) DS_fsf(G) ≥ Δ.
//
// Exactly one of the two results is non-nil. delta must be ≥ 1.
func Repair(g *graph.Graph, delta int) ([]graph.Edge, *Star, error) {
	return RepairWithTrace(g, delta, nil)
}

// RepairWithTrace is Repair with an optional step logger: every vertex
// insertion and local-repair swap (Figure 1 of the paper) is reported to
// trace. A nil trace disables logging.
func RepairWithTrace(g *graph.Graph, delta int, trace func(step string)) ([]graph.Edge, *Star, error) {
	if delta < 1 {
		return nil, nil, fmt.Errorf("spanning: delta %d < 1", delta)
	}
	n := g.N()
	order := insertionOrder(g)

	f := newForest(n)
	inserted := make([]bool, n)
	for _, v0 := range order {
		inserted[v0] = true
		// Attach v0 to any already-inserted neighbor (the proof picks an
		// arbitrary one; we take the smallest for determinism).
		v1 := -1
		for _, w := range g.Neighbors(v0) {
			if inserted[w] {
				v1 = w
				break
			}
		}
		if v1 == -1 {
			if trace != nil {
				trace(fmt.Sprintf("insert %d (isolated among inserted vertices)", v0))
			}
			continue // v0 is isolated in the current induced subgraph
		}
		f.add(v0, v1)
		if trace != nil {
			trace(fmt.Sprintf("insert %d, attach to %d (deg_F(%d) = %d)", v0, v1, v1, f.degree(v1)))
		}

		// Local-repair walk (Algorithm 3). Claim 4.1(d): the repaired
		// vertices form a simple path, so at most n iterations happen.
		prev, cur := v0, v1
		for steps := 0; f.degree(cur) > delta; steps++ {
			if steps > n {
				return nil, nil, fmt.Errorf("spanning: repair walk exceeded %d steps (invariant violation)", n)
			}
			// N: Δ forest-neighbors of cur excluding prev. deg(cur)=Δ+1
			// and prev is a neighbor, so |N| = Δ exactly.
			nbrs := make([]int, 0, delta)
			for _, w := range f.adj[cur] {
				if w != prev {
					nbrs = append(nbrs, w)
				}
			}
			a, b, found := adjacentPair(g, nbrs)
			if !found {
				// nbrs is independent and cur is adjacent (in F ⊆ G) to
				// every element: an induced Δ-star.
				if trace != nil {
					trace(fmt.Sprintf("blocked at %d: neighbors %v independent — induced %d-star", cur, nbrs, delta))
				}
				return nil, &Star{Center: cur, Leaves: nbrs}, nil
			}
			// F ← F \ {(cur,b)} ∪ {(a,b)}; a's degree grows by one and the
			// walk continues at a.
			f.remove(cur, b)
			f.add(a, b)
			if trace != nil {
				trace(fmt.Sprintf("repair at %d: replace edge (%d,%d) with (%d,%d); walk moves to %d",
					cur, cur, b, a, b, a))
			}
			prev, cur = cur, a
		}
	}
	return f.edges(), nil, nil
}

// insertionOrder returns a vertex order such that each vertex, at its turn,
// is not a cut vertex of the graph induced by it and the later... — more
// precisely, the REVERSE order is a "leaf peeling" of a spanning forest T:
// removing vertices in reverse order always removes a current leaf (or an
// isolated vertex) of T, which is never a cut vertex. This realizes the
// induction of Lemma 1.8.
func insertionOrder(g *graph.Graph) []int {
	n := g.N()
	// Spanning forest adjacency.
	tadj := make([][]int, n)
	for _, e := range g.SpanningForest() {
		tadj[e.U] = append(tadj[e.U], e.V)
		tadj[e.V] = append(tadj[e.V], e.U)
	}
	deg := make([]int, n)
	for v := range tadj {
		deg[v] = len(tadj[v])
	}
	removed := make([]bool, n)
	queued := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		if deg[v] <= 1 {
			queue = append(queue, v)
			queued[v] = true
		}
	}
	peel := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		removed[v] = true
		peel = append(peel, v)
		for _, w := range tadj[v] {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] <= 1 && !queued[w] {
				queue = append(queue, w)
				queued[w] = true
			}
		}
	}
	// Reverse: insertion order.
	for i, j := 0, len(peel)-1; i < j; i, j = i+1, j-1 {
		peel[i], peel[j] = peel[j], peel[i]
	}
	return peel
}

// adjacentPair returns the lexicographically first pair (a,b) of distinct
// vertices in nbrs (sorted) that are adjacent in g.
func adjacentPair(g *graph.Graph, nbrs []int) (a, b int, found bool) {
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				return nbrs[i], nbrs[j], true
			}
		}
	}
	return 0, 0, false
}
