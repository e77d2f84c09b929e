package spanning

import (
	"nodedp/internal/graph"
	"nodedp/internal/unionfind"
)

// greedyCappedForest builds a spanning forest Kruskal-style, repeatedly
// adding the acyclic edge with the most headroom caps[v] − deg_F(v) at its
// endpoints: first the larger minimum headroom, then the larger other
// headroom, ties to the lowest index in g.Edges(). Under uniform caps that
// is the edge whose endpoints currently have the smallest degrees, which is
// how LowDegreeSpanningForest uses it.
//
// Each addition costs O(log m) amortized heap work, not a scan of the
// edges. Every edge is filed in both endpoints' heaps, keyed by the other
// endpoint's headroom and then by edge index. A vertex's candidate is its
// heap's top edge when that edge's other endpoint has at least the
// vertex's own headroom, so that the vertex is the edge's endpoint with
// less headroom; the edge the scan picks is then the candidate of largest
// (own headroom, other headroom, −index), which a heap of vertices keyed by
// their candidates yields. Headroom only falls and edges only die, so
// stale keys only overstate: a per-vertex heap refreshes its top when it
// is read, the vertex heap re-keys a vertex whose candidate fell when it
// reaches the top, and an edge that closes a cycle is dropped when it is
// about to be added. Only the two endpoints of an added edge can gain a
// candidate, and they are re-keyed at once. A single heap over the edges
// would not do: on a star every addition moves the key of every remaining
// edge.
func greedyCappedForest(g *graph.Graph, caps []int) []graph.Edge {
	gr := newCappedGreedy(g, caps)
	target := g.SpanningForestSize()
	forest := make([]graph.Edge, 0, target)
	for len(forest) < target && len(gr.heap) > 0 {
		v := gr.heap[0]
		hi, e, w, ok := gr.candidate(v)
		switch {
		case !ok:
			gr.remove(0)
		case hi != gr.hi[v] || e != gr.edge[v]:
			gr.hi[v], gr.edge[v] = hi, e
			gr.down(0)
		case gr.dsu.Same(int(v), int(w)):
			gr.dropTop(v) // a cycle edge; v is re-keyed when it next surfaces
		default:
			gr.dsu.Union(int(v), int(w))
			forest = append(forest, graph.NewEdge(int(v), int(w)))
			gr.dropTop(v)
			gr.room[v]--
			gr.rekey(v)
			gr.room[w]--
			gr.rekey(w)
		}
	}
	return forest
}

// incidence is an edge filed in one endpoint's heap: the other endpoint,
// its headroom when last read, and the edge's index in g.Edges().
type incidence struct {
	room  int
	other int32
	e     int32
}

// cappedGreedy is greedyCappedForest's state.
type cappedGreedy struct {
	room []int // caps[v] − deg_F(v)
	dsu  *unionfind.DSU
	// Vertex v's heap of incident edges is inc[off[v] : off[v]+size[v]],
	// largest headroom then lowest index first; it only shrinks.
	inc  []incidence
	off  []int
	size []int32
	// heap holds the vertices with a candidate, largest key first: v's
	// key is (room[v], hi[v], −edge[v]), its candidate's headrooms and
	// edge when last read. pos[v] is v's index in heap, or −1. A vertex
	// is re-keyed as soon as its own headroom changes, so room[v] is
	// always the key it is filed under.
	heap []int32
	pos  []int32
	hi   []int
	edge []int32
}

func newCappedGreedy(g *graph.Graph, caps []int) *cappedGreedy {
	n := g.N()
	ints := make([]int, 3*n+1)
	int32s := make([]int32, 4*n)
	gr := &cappedGreedy{
		room: ints[:n:n],
		hi:   ints[n : 2*n : 2*n],
		off:  ints[2*n:],
		dsu:  unionfind.New(n),
		inc:  make([]incidence, 2*g.M()),
		size: int32s[:n:n],
		pos:  int32s[n : 2*n : 2*n],
		edge: int32s[2*n : 3*n : 3*n],
		heap: int32s[3*n : 3*n : 4*n],
	}
	copy(gr.room, caps)
	for v := 0; v < n; v++ {
		gr.off[v+1] = gr.off[v] + g.Degree(v)
	}
	e := int32(0)
	for u := 0; u < n; u++ {
		g.VisitNeighbors(u, func(w int) bool {
			if w > u {
				gr.file(u, w, e)
				gr.file(w, u, e)
				e++
			}
			return true
		})
	}
	for v := 0; v < n; v++ {
		for i := int(gr.size[v])/2 - 1; i >= 0; i-- {
			gr.siftIncidence(int32(v), i)
		}
	}
	for v := range gr.pos {
		gr.pos[v] = -1
		if hi, e, _, ok := gr.candidate(int32(v)); ok {
			gr.hi[v], gr.edge[v] = hi, e
			gr.pos[v] = int32(len(gr.heap))
			gr.heap = append(gr.heap, int32(v))
		}
	}
	for i := len(gr.heap)/2 - 1; i >= 0; i-- {
		gr.down(i)
	}
	return gr
}

// file appends edge e, from v to w, to v's heap storage.
func (gr *cappedGreedy) file(v, w int, e int32) {
	gr.inc[gr.off[v]+int(gr.size[v])] = incidence{room: gr.room[w], other: int32(w), e: e}
	gr.size[v]++
}

// candidate returns v's candidate: the other endpoint's headroom hi, the
// edge e and its other endpoint w. It first refreshes a stale headroom at
// the top of v's heap. The edge may close a cycle by now; the main loop
// checks that only for the edge it is about to add, and until then the
// key only overstates.
func (gr *cappedGreedy) candidate(v int32) (hi int, e, w int32, ok bool) {
	for gr.size[v] > 0 {
		top := &gr.inc[gr.off[v]]
		if r := gr.room[top.other]; top.room != r {
			top.room = r
			gr.siftIncidence(v, 0)
			continue
		}
		if top.room < gr.room[v] {
			break
		}
		return top.room, top.e, top.other, true
	}
	return 0, 0, 0, false
}

// dropTop removes the edge at the top of v's heap.
func (gr *cappedGreedy) dropTop(v int32) {
	gr.size[v]--
	gr.inc[gr.off[v]] = gr.inc[gr.off[v]+int(gr.size[v])]
	gr.siftIncidence(v, 0)
}

// siftIncidence restores v's heap below position i.
func (gr *cappedGreedy) siftIncidence(v int32, i int) {
	h := gr.inc[gr.off[v] : gr.off[v]+int(gr.size[v])]
	above := func(a, b *incidence) bool { return a.room > b.room || a.room == b.room && a.e < b.e }
	for {
		best := i
		if l := 2*i + 1; l < len(h) && above(&h[l], &h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && above(&h[r], &h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// rekey files v under its current candidate after its headroom fell,
// entering or leaving the vertex heap as needed. A vertex already in the
// heap only sinks: its key's first part, its headroom, fell.
func (gr *cappedGreedy) rekey(v int32) {
	hi, e, _, ok := gr.candidate(v)
	i := int(gr.pos[v])
	switch {
	case ok && i < 0:
		gr.hi[v], gr.edge[v] = hi, e
		gr.pos[v] = int32(len(gr.heap))
		gr.heap = append(gr.heap, v)
		gr.up(len(gr.heap) - 1)
	case ok:
		gr.hi[v], gr.edge[v] = hi, e
		gr.down(i)
	case i >= 0:
		gr.remove(i)
	}
}

// above orders the vertex heap: larger own headroom, then larger other
// headroom, then lower edge index.
func (gr *cappedGreedy) above(a, b int32) bool {
	if ra, rb := gr.room[a], gr.room[b]; ra != rb {
		return ra > rb
	}
	if gr.hi[a] != gr.hi[b] {
		return gr.hi[a] > gr.hi[b]
	}
	return gr.edge[a] < gr.edge[b]
}

// remove deletes the vertex at heap position i.
func (gr *cappedGreedy) remove(i int) {
	gr.pos[gr.heap[i]] = -1
	last := len(gr.heap) - 1
	if i != last {
		gr.heap[i] = gr.heap[last]
		gr.pos[gr.heap[i]] = int32(i)
	}
	gr.heap = gr.heap[:last]
	if i != last {
		gr.down(gr.up(i))
	}
}

// up moves the vertex at i toward the root while it ranks above its
// parent, and returns where it stops.
func (gr *cappedGreedy) up(i int) int {
	for i > 0 {
		p := (i - 1) / 2
		if !gr.above(gr.heap[i], gr.heap[p]) {
			break
		}
		gr.swap(i, p)
		i = p
	}
	return i
}

// down moves the vertex at i away from the root while a child ranks above
// it.
func (gr *cappedGreedy) down(i int) {
	h := gr.heap
	for {
		best := i
		if l := 2*i + 1; l < len(h) && gr.above(h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && gr.above(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		gr.swap(i, best)
		i = best
	}
}

func (gr *cappedGreedy) swap(i, j int) {
	h := gr.heap
	h[i], h[j] = h[j], h[i]
	gr.pos[h[i]] = int32(i)
	gr.pos[h[j]] = int32(j)
}
