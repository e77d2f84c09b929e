package maxflow

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// closureNetwork builds a random max-closure network in the separation
// oracle's layout: 0 = source, one node per edge of a random graph (profit
// x_e from the source, infinite arcs to both endpoints), one node per
// vertex (unit arc to the sink), sink last. It returns the network and the
// vertices' sink arcs.
func closureNetwork(rng *rand.Rand) (*Network, []int) {
	n := 4 + rng.IntN(12)
	type edge struct{ u, v int }
	var edges []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.4 {
				edges = append(edges, edge{u, v})
			}
		}
	}
	m := len(edges)
	nw := New(m + n + 2)
	snk := m + n + 1
	for i, e := range edges {
		x := rng.Float64() * 1.2
		if rng.IntN(4) == 0 {
			continue // an LP zero: no arc, as in the oracle's template
		}
		nw.AddEdge(0, 1+i, x)
		nw.AddEdge(1+i, m+1+e.u, math.Inf(1))
		nw.AddEdge(1+i, m+1+e.v, math.Inf(1))
	}
	sinkArc := make([]int, n)
	for v := range sinkArc {
		sinkArc[v] = nw.AddEdge(m+1+v, snk, 1)
	}
	return nw, sinkArc
}

// TestRestampMatchesCopyFrom solves every forced-vertex variant of random
// closure networks twice: on a fresh CopyFrom of the template, and on one
// arena that copied the template once and restamps only its capacities
// before each later variant. Flow bits and the min-cut source side must
// agree for every variant.
func TestRestampMatchesCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	arena := New(0)
	for trial := 0; trial < 100; trial++ {
		tmpl, sinkArc := closureNetwork(rng)
		src, snk := 0, tmpl.N()-1
		for u, a := range sinkArc {
			fresh := New(0)
			fresh.CopyFrom(tmpl)
			fresh.SetCap(a, 0)
			want := fresh.MaxFlow(src, snk)
			wantSide := slices.Clone(fresh.MinCutSourceSide(src))

			if u == 0 {
				arena.CopyFrom(tmpl)
			} else {
				arena.Restamp(tmpl)
			}
			arena.SetCap(a, 0)
			got := arena.MaxFlow(src, snk)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d vertex %d: restamped flow %v, fresh copy %v", trial, u, got, want)
			}
			if side := arena.MinCutSourceSide(src); !slices.Equal(side, wantSide) {
				t.Fatalf("trial %d vertex %d: restamped cut side %v, fresh copy %v", trial, u, side, wantSide)
			}
		}
	}
	mustPanic(t, func() { New(3).Restamp(New(2)) })
}

// maxFlowFullBFS is the reference Dinic: the same phases and blocking-flow
// search as MaxFlow, but each breadth-first search labels every reachable
// vertex instead of stopping once the sink is labeled.
func (nw *Network) maxFlowFullBFS(s, t int) float64 {
	nw.level = make([]int32, nw.n)
	nw.iter = make([]int32, nw.n)
	total := 0.0
	for {
		for i := range nw.level {
			nw.level[i] = -1
		}
		nw.level[s] = 0
		queue := []int32{int32(s)}
		for i := 0; i < len(queue); i++ {
			u := queue[i]
			for a := nw.head[u]; a != -1; a = nw.next[a] {
				if v := nw.to[a]; nw.cap[a] > Eps && nw.level[v] == -1 {
					nw.level[v] = nw.level[u] + 1
					queue = append(queue, v)
				}
			}
		}
		if nw.level[t] == -1 {
			return total
		}
		copy(nw.iter, nw.head)
		for {
			pushed := nw.dfs(s, t, math.Inf(1))
			if pushed <= 0 {
				break
			}
			total += pushed
		}
	}
}

// TestSinkLevelStopMatchesFullBFS compares MaxFlow with the full-search
// reference on random closure networks and random dense digraphs: the flow
// bits, every residual capacity and the min-cut source side must agree.
func TestSinkLevelStopMatchesFullBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 2))
	for trial := 0; trial < 300; trial++ {
		var nw *Network
		if trial%2 == 0 {
			var sinkArc []int
			nw, sinkArc = closureNetwork(rng)
			nw.SetCap(sinkArc[rng.IntN(len(sinkArc))], 0)
		} else {
			n := 3 + rng.IntN(10)
			nw = New(n)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && rng.Float64() < 0.35 {
						nw.AddEdge(u, v, float64(rng.IntN(8))+rng.Float64())
					}
				}
			}
		}
		s, tt := 0, nw.N()-1
		ref := New(0)
		ref.CopyFrom(nw)
		want := ref.maxFlowFullBFS(s, tt)
		got := nw.MaxFlow(s, tt)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: flow %v, full-BFS reference %v", trial, got, want)
		}
		for a := range nw.cap {
			if math.Float64bits(nw.cap[a]) != math.Float64bits(ref.cap[a]) {
				t.Fatalf("trial %d: arc %d residual %v, reference %v", trial, a, nw.cap[a], ref.cap[a])
			}
		}
		if side, refSide := nw.MinCutSourceSide(s), ref.MinCutSourceSide(s); !slices.Equal(side, refSide) {
			t.Fatalf("trial %d: cut side %v, reference %v", trial, side, refSide)
		}
	}
}
