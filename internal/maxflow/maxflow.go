// Package maxflow implements Dinic's maximum-flow algorithm with float64
// capacities. It powers the Padberg–Wolsey separation oracle for the
// forest polytope (internal/forestlp): a violated subtour constraint
// x(E[S]) ≤ |S|−1 is located via max-closure computations, each of which is
// one s-t min-cut on a small bipartite-ish network.
//
// Capacities are nonnegative float64s; a tolerance of Eps governs residual
// admissibility so that the tiny rounding noise produced by the LP solver
// cannot create phantom augmenting paths.
//
// Networks are arena-style reusable: Reset re-initializes a network in
// place keeping its buffers, CopyFrom stamps one network's arcs into
// another without allocating (once the destination has grown to size), and
// Restamp resets a copy's residual capacities to its source's, leaving the
// arc structure alone. The separation oracle builds one template network
// per cutting-plane round; each worker copies it into its own long-lived
// arena once per round and restamps only the capacities for every further
// forced vertex, so the hot loop neither allocates nor recopies arcs.
//
// Each Dinic phase's breadth-first search stops expanding once the sink is
// labeled: a vertex at or beyond the sink's level has no level-increasing
// path to it, so labeling more of them changes no augmenting path, and the
// flow and the cut come out bit-identical to a full search.
package maxflow

import (
	"fmt"
	"math"
)

// Eps is the admissibility tolerance: residual capacities below Eps are
// treated as saturated.
const Eps = 1e-12

// Network is a flow network under construction. Vertices are 0..n-1.
type Network struct {
	n     int
	head  []int32 // head[v] = first arc index of v, -1 if none
	next  []int32 // next[a] = next arc of the same tail
	to    []int32
	cap   []float64
	level []int32
	iter  []int32
	queue []int32 // bfs scratch
	seen  []bool  // min-cut scratch
}

// New returns an empty network on n vertices.
func New(n int) *Network {
	nw := &Network{}
	nw.Reset(n)
	return nw
}

// Reset re-initializes nw in place as an empty network on n vertices,
// keeping the underlying buffers so repeated solves on same-sized networks
// allocate nothing after the first.
func (nw *Network) Reset(n int) {
	if n < 0 {
		panic("maxflow: negative vertex count")
	}
	nw.n = n
	if cap(nw.head) < n {
		nw.head = make([]int32, n)
	}
	nw.head = nw.head[:n]
	for i := range nw.head {
		nw.head[i] = -1
	}
	nw.next = nw.next[:0]
	nw.to = nw.to[:0]
	nw.cap = nw.cap[:0]
}

// CopyFrom makes nw an exact copy of src (vertices, arcs, and residual
// capacities), reusing nw's buffers. The two networks share no state
// afterwards, so a template can be stamped into per-worker arenas and
// mutated concurrently.
func (nw *Network) CopyFrom(src *Network) {
	nw.n = src.n
	nw.head = append(nw.head[:0], src.head...)
	nw.next = append(nw.next[:0], src.next...)
	nw.to = append(nw.to[:0], src.to...)
	nw.cap = append(nw.cap[:0], src.cap...)
}

// Restamp resets nw's residual capacities to src's, as CopyFrom would, but
// copies only the capacity array. nw must hold src's arcs: a CopyFrom(src)
// made since src last changed its vertices or arcs (Reset, AddEdge). A
// solve on nw changes only capacities, so this rewinds any number of
// solves and SetCap calls; it panics if the arc counts differ.
func (nw *Network) Restamp(src *Network) {
	if nw.n != src.n || len(nw.cap) != len(src.cap) {
		panic(fmt.Sprintf("maxflow: restamp of a %d-vertex, %d-arc network from a %d-vertex, %d-arc one",
			nw.n, len(nw.cap), src.n, len(src.cap)))
	}
	copy(nw.cap, src.cap)
}

// N returns the vertex count.
func (nw *Network) N() int { return nw.n }

// Arcs returns the number of directed arcs (including residual reverses).
func (nw *Network) Arcs() int { return len(nw.to) }

// SetCap overwrites the capacity of arc a (an index returned by AddEdge;
// a^1 addresses its residual reverse). It is the cheap way to specialize a
// copied template — e.g. waiving one vertex's cost by zeroing its sink arc.
func (nw *Network) SetCap(a int, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: bad capacity %v", capacity))
	}
	nw.cap[a] = capacity
}

// AddEdge adds a directed edge u→v with the given capacity (and the
// implicit residual reverse arc with capacity 0), returning the arc index
// of the forward arc. Infinite capacity may be passed as math.Inf(1).
func (nw *Network) AddEdge(u, v int, capacity float64) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, nw.n))
	}
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("maxflow: bad capacity %v", capacity))
	}
	a := len(nw.to)
	nw.addArc(u, v, capacity)
	nw.addArc(v, u, 0)
	return a
}

func (nw *Network) addArc(u, v int, capacity float64) {
	nw.to = append(nw.to, int32(v))
	nw.cap = append(nw.cap, capacity)
	nw.next = append(nw.next, nw.head[u])
	nw.head[u] = int32(len(nw.to) - 1)
}

// bfs builds the level graph; returns true if t is reachable. It stops
// expanding vertices once t is labeled: the rest lie at or beyond t's
// level, where no level-increasing path reaches t, so dfs would find them
// dead ends either way.
func (nw *Network) bfs(s, t int) bool {
	if cap(nw.level) < nw.n {
		nw.level = make([]int32, nw.n)
	}
	nw.level = nw.level[:nw.n]
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := nw.queue[:0]
	nw.level[s] = 0
	queue = append(queue, int32(s))
	for i := 0; i < len(queue) && nw.level[t] == -1; i++ {
		u := queue[i]
		for a := nw.head[u]; a != -1; a = nw.next[a] {
			v := nw.to[a]
			if nw.cap[a] > Eps && nw.level[v] == -1 {
				nw.level[v] = nw.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	nw.queue = queue[:0] // keep the grown buffer
	return nw.level[t] != -1
}

// dfs sends blocking flow along level-increasing admissible arcs.
func (nw *Network) dfs(u, t int, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; nw.iter[u] != -1; nw.iter[u] = nw.next[nw.iter[u]] {
		a := nw.iter[u]
		v := nw.to[a]
		if nw.cap[a] <= Eps || nw.level[v] != nw.level[u]+1 {
			continue
		}
		pushed := nw.dfs(int(v), t, math.Min(limit, nw.cap[a]))
		if pushed > 0 {
			nw.cap[a] -= pushed
			nw.cap[a^1] += pushed
			return pushed
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow. The network is mutated (residual
// capacities); call MinCutSourceSide afterwards to read the cut.
func (nw *Network) MaxFlow(s, t int) float64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	if cap(nw.iter) < nw.n {
		nw.iter = make([]int32, nw.n)
	}
	nw.iter = nw.iter[:nw.n]
	total := 0.0
	for nw.bfs(s, t) {
		copy(nw.iter, nw.head)
		for {
			pushed := nw.dfs(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

// MinCutSourceSide returns, after MaxFlow(s,t), the set of vertices
// reachable from s in the residual network — the source side of a minimum
// cut. The returned slice is owned by the network and overwritten by the
// next MinCutSourceSide call; copy it if it must outlive the network's
// reuse cycle.
func (nw *Network) MinCutSourceSide(s int) []bool {
	if cap(nw.seen) < nw.n {
		nw.seen = make([]bool, nw.n)
	}
	seen := nw.seen[:nw.n]
	for i := range seen {
		seen[i] = false
	}
	seen[s] = true
	stack := nw.queue[:0]
	stack = append(stack, int32(s))
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := nw.head[u]; a != -1; a = nw.next[a] {
			v := nw.to[a]
			if nw.cap[a] > Eps && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	nw.queue = stack[:0]
	nw.seen = seen
	return seen
}
