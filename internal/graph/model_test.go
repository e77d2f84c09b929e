package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// mapGraph is the reference model for Graph: every vertex keeps a hash
// set of its neighbors, and every query sorts what it returns.
type mapGraph struct {
	adj []map[int]struct{}
}

func newMapGraph(n int) *mapGraph { return &mapGraph{adj: make([]map[int]struct{}, n)} }

func (h *mapGraph) addEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || u >= len(h.adj) || v < 0 || v >= len(h.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(h.adj))
	}
	if _, dup := h.adj[u][v]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	for _, p := range [][2]int{{u, v}, {v, u}} {
		if h.adj[p[0]] == nil {
			h.adj[p[0]] = make(map[int]struct{})
		}
		h.adj[p[0]][p[1]] = struct{}{}
	}
	return nil
}

func (h *mapGraph) removeEdge(u, v int) bool {
	if _, ok := h.adj[u][v]; !ok {
		return false
	}
	delete(h.adj[u], v)
	delete(h.adj[v], u)
	return true
}

func (h *mapGraph) hasEdge(u, v int) bool {
	_, ok := h.adj[u][v]
	return ok
}

func (h *mapGraph) neighbors(v int) []int {
	out := []int{}
	for w := range h.adj[v] {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

func (h *mapGraph) edges() []Edge {
	out := []Edge{}
	for u := range h.adj {
		for _, v := range h.neighbors(u) {
			if u < v {
				out = append(out, Edge{U: u, V: v})
			}
		}
	}
	return out
}

// components labels by a search from each unlabeled vertex in increasing
// order, so ids follow the smallest vertex of each component.
func (h *mapGraph) components() ([]int, int) {
	labels := make([]int, len(h.adj))
	for i := range labels {
		labels[i] = -1
	}
	count := 0
	for s := range h.adj {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for w := range h.adj[u] {
				if labels[w] < 0 {
					labels[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// spanningForest is breadth-first search from increasing roots, visiting
// neighbors in increasing order.
func (h *mapGraph) spanningForest() []Edge {
	visited := make([]bool, len(h.adj))
	out := []Edge{}
	for s := range h.adj {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range h.neighbors(u) {
				if !visited[w] {
					visited[w] = true
					out = append(out, NewEdge(u, w))
					queue = append(queue, w)
				}
			}
		}
	}
	return out
}

// induced renumbers the sorted, distinct vertex set keep by rank.
func (h *mapGraph) induced(keep []int) *mapGraph {
	index := make(map[int]int, len(keep))
	for i, v := range keep {
		index[v] = i
	}
	out := newMapGraph(len(keep))
	for _, e := range h.edges() {
		i, iok := index[e.U]
		j, jok := index[e.V]
		if iok && jok {
			if err := out.addEdge(i, j); err != nil {
				panic(err)
			}
		}
	}
	return out
}

func (h *mapGraph) removeVertex(v int) *mapGraph {
	keep := []int{}
	for w := range h.adj {
		if w != v {
			keep = append(keep, w)
		}
	}
	return h.induced(keep)
}

func (h *mapGraph) fingerprint() Fingerprint {
	var hi, lo uint64
	edges := h.edges()
	for _, e := range edges {
		eh, el := edgeHash(e.U, e.V)
		hi += eh
		lo += el
	}
	return composeFingerprint(len(h.adj), len(edges), hi, lo)
}

// checkModel compares every query of g with the model's answer.
func checkModel(t *testing.T, step string, g *Graph, h *mapGraph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	want := h.edges()
	if g.N() != len(h.adj) || g.M() != len(want) {
		t.Fatalf("%s: n=%d m=%d, model n=%d m=%d", step, g.N(), g.M(), len(h.adj), len(want))
	}
	for v := 0; v < g.N(); v++ {
		nb := h.neighbors(v)
		if got := g.Neighbors(v); !slices.Equal(got, nb) || g.Degree(v) != len(nb) {
			t.Fatalf("%s: neighbors of %d %v, model %v", step, v, got, nb)
		}
		var visited []int
		g.VisitNeighbors(v, func(w int) bool { visited = append(visited, w); return true })
		if !slices.Equal(visited, nb) {
			t.Fatalf("%s: VisitNeighbors(%d) visited %v, model %v", step, v, visited, nb)
		}
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("%s: edges %v, model %v", step, got, want)
	}
	labels, count := g.Components()
	wantLabels, wantCount := h.components()
	if count != wantCount || !slices.Equal(labels, wantLabels) {
		t.Fatalf("%s: components %v (%d), model %v (%d)", step, labels, count, wantLabels, wantCount)
	}
	if got, want := g.SpanningForest(), h.spanningForest(); !slices.Equal(got, want) {
		t.Fatalf("%s: spanning forest %v, model %v", step, got, want)
	}
	if got, want := g.Fingerprint(), h.fingerprint(); got != want {
		t.Fatalf("%s: fingerprint %v, model %v", step, got, want)
	}
}

// TestGraphMatchesMapModel drives random sequences of edits and queries
// through Graph and the map-based model and compares every answer,
// error messages included.
func TestGraphMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.IntN(24)
		g, h := New(n), newMapGraph(n)
		for op := 0; op < 120; op++ {
			// Endpoints may be out of range or equal, to reach every error.
			u, v := rng.IntN(n+2)-1, rng.IntN(n+2)-1
			inRange := u >= 0 && u < n && v >= 0 && v < n
			step := fmt.Sprintf("trial %d op %d", trial, op)
			switch k := rng.IntN(10); {
			case k < 3:
				err, want := g.AddEdge(u, v), h.addEdge(u, v)
				if fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("%s: AddEdge(%d,%d) = %v, model %v", step, u, v, err, want)
				}
			case k == 3 && inRange:
				added, err := g.EnsureEdge(u, v)
				wantAdded := u != v && !h.hasEdge(u, v)
				if wantAdded {
					if err := h.addEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
				if added != wantAdded || (err != nil) != (u == v) {
					t.Fatalf("%s: EnsureEdge(%d,%d) = %v, %v", step, u, v, added, err)
				}
			case k < 6 && inRange:
				if got, want := g.RemoveEdge(u, v), h.removeEdge(u, v); got != want {
					t.Fatalf("%s: RemoveEdge(%d,%d) = %v, model %v", step, u, v, got, want)
				}
			case k == 6 && inRange:
				if got, want := g.HasEdge(u, v), h.hasEdge(u, v); got != want {
					t.Fatalf("%s: HasEdge(%d,%d) = %v, model %v", step, u, v, got, want)
				}
			case k == 7:
				// A clone equals its source and edits apart from it.
				c := g.Clone()
				if !c.Equal(g) || !g.Equal(c) {
					t.Fatalf("%s: clone differs", step)
				}
				if inRange && u != v {
					if !c.RemoveEdge(u, v) {
						if err := c.AddEdge(u, v); err != nil {
							t.Fatal(err)
						}
					}
					if c.Equal(g) {
						t.Fatalf("%s: edited clone still equal", step)
					}
				}
			case k == 8:
				var keep []int
				for w := 0; w < g.N(); w++ {
					if rng.IntN(2) == 0 {
						keep = append(keep, w)
					}
				}
				rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
				sub, orig, err := g.InducedSubgraph(keep)
				if err != nil {
					t.Fatal(err)
				}
				want := slices.Clone(keep)
				slices.Sort(want)
				if !slices.Equal(orig, want) {
					t.Fatalf("%s: induced orig %v, want %v", step, orig, want)
				}
				checkModel(t, step+" induced", sub, h.induced(want))
				if len(keep) > 0 {
					if _, _, err := g.InducedSubgraph(append(keep, keep[0])); err == nil {
						t.Fatalf("%s: a repeated vertex must be rejected", step)
					}
				}
			case k == 9 && g.N() > 0:
				w := rng.IntN(g.N())
				checkModel(t, step+" remove vertex", g.RemoveVertex(w), h.removeVertex(w))
				if rng.IntN(4) == 0 {
					g.AddVertex()
					h.adj = append(h.adj, nil)
					n++
				}
			}
			checkModel(t, step, g, h)
		}
		if rebuilt := MustFromEdges(g.N(), g.Edges()); !rebuilt.Equal(g) || rebuilt.Fingerprint() != g.Fingerprint() {
			t.Fatalf("trial %d: FromEdges of the edges differs", trial)
		}
		if back := NewCSR(g).Graph(); !back.Equal(g) || back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("trial %d: CSR round trip differs", trial)
		}
	}
}

// TestFromEdgesMatchesSequential checks the bulk FromEdges against adding
// the same edges one by one: the same inputs accepted, equal graphs, and
// the same error, so a repeat is reported at its second occurrence even
// when a later edge is also bad.
func TestFromEdgesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 2))
	for trial := 0; trial < 2000; trial++ {
		n := rng.IntN(12)
		edges := make([]Edge, rng.IntN(30))
		for i := range edges {
			edges[i] = Edge{U: rng.IntN(n+2) - 1, V: rng.IntN(n+2) - 1}
			if rng.IntN(3) > 0 && n >= 2 { // mostly valid edges
				edges[i] = Edge{U: rng.IntN(n), V: rng.IntN(n)}
			}
		}
		want := New(n)
		var wantErr error
		for _, e := range edges {
			if wantErr = want.AddEdge(e.U, e.V); wantErr != nil {
				break
			}
		}
		got, err := FromEdges(n, edges)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: FromEdges(%d, %v) error %v, sequential %v", trial, n, edges, err, wantErr)
		}
		if err != nil {
			continue
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: FromEdges %v, sequential %v", trial, got.Edges(), want.Edges())
		}
	}
}
