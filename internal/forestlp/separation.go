package forestlp

import (
	"math"
	"sort"
	"sync"

	"nodedp/internal/graph"
	"nodedp/internal/maxflow"
)

// This file implements the Padberg–Wolsey separation oracle for the forest
// polytope: for a forced vertex u, the quantity
//
//	W(u) = max_{S ∋ u} ( x(E[S]) − |S| + 1 )
//
// is a maximum-weight-closure value, computable as Σx − mincut on a network
// with a node per edge (profit x_e, requires both endpoints) and a node per
// vertex (cost 1, waived for u). A subtour constraint is violated iff
// W(u) > 0 for some u, and the minimizing cut's source side reads off S.
//
// The oracle is organized for the hot path:
//
//   - One flow-network template is built per separation round; each
//     per-forced-vertex variant differs only in one sink-arc capacity, so
//     each worker copies the template's arcs into its long-lived arena once
//     per round (maxflow.CopyFrom) and then restamps only the capacities
//     for every further forced vertex (maxflow.Restamp), instead of
//     reallocating O(n+m) structures per call.
//   - Forced vertices are dispatched in waves of geometrically ramping
//     width across a worker pool (Options.Workers, capped at the wave
//     width). The wave schedule and the merge — covered screening and
//     dedup in vertex order — are independent of the worker count, so
//     results and flow counts are bit-for-bit identical for any Workers
//     setting.
//   - A parked pool of previously discovered cuts is re-checked against
//     every LP point before the oracle runs: reviving a known violated cut
//     costs one sparse dot product and pre-covers its vertices, so flows
//     are spent only where no known cut separates.
//   - Forced vertices are screened to the 2-core of the fractional
//     support: any set avoiding that core induces a forest of ≤1-weight
//     support edges and cannot be violated beyond tolerance, so the
//     certification sweeps that dominate the oracle's cost shrink to the
//     (often empty) core.
//   - Cuts are identified by canonical 128-bit hashes of their sorted
//     vertex ids (no string keys), and per-set violation sums walk only the
//     edges incident to the set via a per-vertex edge index instead of
//     rescanning all m edges.

// sepWaveWidth is the maximum wave width of the parallel oracle: how many
// forced vertices are dispatched at most before the covered screening is
// re-applied. It is never derived from Workers, because the wave
// schedule determines which oracle calls run, and those must not change
// with the worker count. The width also caps the separation workers.
const sepWaveWidth = 16

// cutKey is the canonical 128-bit identity of a vertex set: two sets
// collide only with probability ≈ 2⁻¹²⁸. It replaces the string keys of the
// original oracle (one allocation and O(|S|) formatting per candidate) and
// doubles as the deterministic secondary sort key of capCuts.
type cutKey struct{ hi, lo uint64 }

// less orders keys lexicographically; used only for tie-breaking.
func (k cutKey) less(o cutKey) bool {
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	return k.lo < o.lo
}

// mix64 is the splitmix64 finalizer: a fast bijective mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyOfIDs hashes a strictly increasing id list into a canonical cutKey.
// The two halves fold the stream through independent mixes so a collision
// must defeat both.
func keyOfIDs(ids []int32) cutKey {
	hi := uint64(0x9e3779b97f4a7c15)
	lo := uint64(0x517cc1b727220a95)
	for _, v := range ids {
		hi = mix64(hi ^ (uint64(v) + 1))
		lo = mix64(lo + (uint64(v)+1)*0xc2b2ae3d27d4eb4f)
	}
	return cutKey{hi: hi, lo: lo}
}

// cut is a violated vertex set together with its bookkeeping key and the
// violation amount at the separating point.
type cut struct {
	// ids are the member vertex ids, sorted ascending (LP-local space).
	ids []int32
	// edgeIdx are the LP edge indices with both endpoints in the set; cut
	// rows and slack checks iterate these instead of all m edges.
	edgeIdx   []int32
	size      int
	key       cutKey
	violation float64
	// slackRounds counts consecutive LP rounds in which the cut was slack;
	// managed by the cutting-plane loop.
	slackRounds int
	// slackParked marks a cut parked by the slack-aging path (as opposed
	// to truncation overflow or pool seeding); it distinguishes genuine
	// drop/revive oscillation for the revivals counter.
	slackParked bool
	// revivals counts returns from the parked pool after a slack-aging
	// drop. A cut revived twice this way is oscillating — dropped as
	// slack, violated again, repeat — and each swing of that cycle costs
	// a full LP round while the bouncing objective defeats the stall
	// detector; the cutting-plane loop pins such cuts in the active set
	// for good. Truncation overflow and pool seeds do not count: they
	// were never judged useless, so re-activating them is not a cycle.
	revivals int
}

// closureResult is one forced vertex's oracle outcome within a wave.
type closureResult struct {
	member   []bool // slot-owned scratch, valid until the next wave
	size     int
	violated bool
}

// separator owns the oracle state for one piece's cutting-plane run.
type separator struct {
	g        *graph.Graph
	edges    []graph.Edge
	incident [][]int32 // incident[v] = indices into edges touching v
	workers  int
	wave     int             // maximum wave width (sepWaveWidth clamped to n)
	seen     map[cutKey]bool // canonical keys of every known cut (active or parked)

	// parked holds known-but-inactive cuts: aged-out actives, truncation
	// overflow, and cross-Δ pool seeds. findViolated re-checks them against
	// the LP point before paying for any oracle flow — reviving a known
	// violated cut costs one sparse dot product, re-discovering it costs a
	// max-flow.
	parked []*cut
	// revived counts cuts returned by the zero-flow revive pass.
	revived int
	// noRevive disables the parked pool once flushParked has run: parked
	// cuts are forgotten instead, so the oracle re-derives them with flows.
	noRevive bool

	// Per-round flow template and its per-vertex sink arcs.
	template *maxflow.Network
	sinkArc  []int
	totalX   float64

	// Arenas and wave scratch, allocated lazily and reused across rounds.
	// Worker w solves on arenas[w]; stamped[w] reports whether that arena
	// holds this round's template arcs, so only its capacities need
	// restamping.
	arenas   []*maxflow.Network
	stamped  []bool
	results  []closureResult
	waveBuf  []int
	eligible []bool
	covered  []bool
	supDeg   []int32
	partSeen []bool
	partMask []bool
	stack    []int32
}

func newSeparator(g *graph.Graph, edges []graph.Edge, workers int) *separator {
	n := g.N()
	// A wave never holds more than the piece's n forced vertices, and a
	// width of at least the remaining vertex count gathers all of them, so
	// a wider wave changes neither the schedule nor the counters — it would
	// only allocate result slots (each with an n-long membership slice)
	// that no wave fills.
	wave := min(sepWaveWidth, n)
	if workers < 1 {
		workers = 1
	}
	if workers > wave {
		workers = wave
	}
	incident := make([][]int32, n)
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	flat := make([]int32, 2*len(edges))
	off := 0
	for v := 0; v < n; v++ {
		incident[v] = flat[off : off : off+int(deg[v])]
		off += int(deg[v])
	}
	for i, e := range edges {
		incident[e.U] = append(incident[e.U], int32(i))
		incident[e.V] = append(incident[e.V], int32(i))
	}
	return &separator{
		g:        g,
		edges:    edges,
		incident: incident,
		workers:  workers,
		wave:     wave,
		seen:     make(map[cutKey]bool),
	}
}

// park moves a cut to the inactive pool: it stays registered (the oracle
// will not re-derive it with a flow) and returns to the active set for free
// if a later LP point violates it again. With noRevive the cut is
// forgotten instead, releasing its key for oracle re-discovery.
func (sp *separator) park(ct *cut) {
	if sp.noRevive {
		delete(sp.seen, ct.key)
		return
	}
	sp.parked = append(sp.parked, ct)
}

// flushParked forgets every parked cut and disables further parking: the
// cutting-plane loop calls it when a piece is halfway to the stall
// bailout, because on degenerate faces the pool's cheap revivals feed the
// churn instead of finishing it — the stall detector then sees the same
// frozen face the original engine did.
func (sp *separator) flushParked() {
	for _, ct := range sp.parked {
		delete(sp.seen, ct.key)
	}
	sp.parked = nil
	sp.noRevive = true
}

// revive scans the parked pool against x and extracts the violated cuts,
// in parked order (the caller's capCuts establishes the final ranking). It
// is the zero-flow separation path: revived cuts rejoin the candidate set
// without any oracle call.
func (sp *separator) revive(x []float64) []*cut {
	var violated []*cut
	keep := sp.parked[:0]
	for _, ct := range sp.parked {
		lhs := 0.0
		for _, i := range ct.edgeIdx {
			lhs += x[i]
		}
		if v := lhs - float64(ct.size-1); v > engineTol {
			ct.violation = v
			ct.slackRounds = 0
			if ct.slackParked {
				ct.revivals++
				ct.slackParked = false
			}
			violated = append(violated, ct)
		} else {
			keep = append(keep, ct)
		}
	}
	sp.parked = keep
	return violated
}

// adopt registers an externally supplied vertex set (a warm-start pool cut,
// already translated to this piece's id space, sorted ascending) as an
// active cut with zero recorded violation. ok=false if an identical cut is
// already registered.
func (sp *separator) adopt(ids []int32) (*cut, bool) {
	key := keyOfIDs(ids)
	if sp.seen[key] {
		return nil, false
	}
	sp.seen[key] = true
	return &cut{
		ids:     append([]int32(nil), ids...),
		edgeIdx: sp.edgesWithin(ids),
		size:    len(ids),
		key:     key,
	}, true
}

// edgesWithin returns the edge indices with both endpoints in ids (sorted
// id list), using the incident index — O(volume of the set), not O(m).
func (sp *separator) edgesWithin(ids []int32) []int32 {
	mask := sp.scratchMask()
	for _, v := range ids {
		mask[v] = true
	}
	var out []int32
	for _, v := range ids {
		for _, i := range sp.incident[v] {
			e := sp.edges[i]
			if e.U == int(v) && mask[e.V] {
				out = append(out, i)
			}
		}
	}
	for _, v := range ids {
		mask[v] = false
	}
	return out
}

// scratchMask returns the shared n-length membership scratch (callers must
// clear the bits they set before returning).
func (sp *separator) scratchMask() []bool {
	if sp.partMask == nil {
		sp.partMask = make([]bool, sp.g.N())
	}
	return sp.partMask
}

// findViolated returns new violated subtour constraints for the LP point x
// (strongest first), and the number of max-flow calls made. Two zero-flow
// passes run first: the trivial pair sets S = {u,v} (the x_e ≤ 1
// constraints) and the parked pool of previously discovered cuts; if
// either yields violated cuts those are returned without any flow. Only
// then does the max-closure oracle sweep the eligible forced vertices in
// waves, skipping vertices already covered by a violated set found in an
// earlier wave and discarding (in vertex order) results covered within the
// wave — a schedule independent of the worker count.
func (sp *separator) findViolated(x []float64, maxCuts int) ([]*cut, int) {
	n := sp.g.N()

	// Cheap pass: pair constraints x_e ≤ 1.
	var pairs []*cut
	for i, e := range sp.edges {
		if x[i] > 1+engineTol {
			ids := []int32{int32(e.U), int32(e.V)}
			if c, ok := sp.record(ids, x[i]-1, []int32{int32(i)}); ok {
				pairs = append(pairs, c)
			}
		}
	}
	if len(pairs) > 0 {
		return sp.capCuts(pairs, maxCuts), 0
	}

	sp.buildTemplate(x)
	if sp.totalX <= engineTol {
		// Every subtour lhs is at most Σx ≤ engineTol < 1 ≤ |S|−1: nothing to find.
		return nil, 0
	}
	sp.ensureScratch(n)
	sp.screenEligible(x)
	eligible := sp.eligible
	covered := sp.covered
	for v := range covered {
		covered[v] = false
	}

	// Zero-flow pass: revive parked cuts the point violates. They rejoin
	// the candidate set for free and pre-cover their vertices, so the
	// oracle spends its flows only where no known cut already separates.
	cuts := sp.revive(x)
	sp.revived += len(cuts)
	for _, ct := range cuts {
		for _, v := range ct.ids {
			covered[v] = true
		}
	}

	// Oracle sweep in waves of geometrically ramping width: the first
	// probes are sequential — on rounds where violated sets exist, the
	// first forced vertex usually finds one whose coverage silences many
	// others, so narrow early waves avoid paying flows for results the
	// merge would discard — while certification rounds (nothing to find,
	// nothing covered) ramp to full width and parallelize across the
	// separation workers. The schedule depends only on (x, coverage),
	// never on the worker count.
	flows := 0
	width := 1
	next := 0
	for next < n {
		// Collect the next wave of eligible, uncovered forced vertices.
		wave := sp.waveBuf[:0]
		for ; next < n && len(wave) < width; next++ {
			if eligible[next] && !covered[next] {
				wave = append(wave, next)
			}
		}
		width *= 2
		if width > sp.wave {
			width = sp.wave
		}
		if len(wave) == 0 {
			break
		}
		flows += len(wave)
		sp.runWave(x, wave)

		// Deterministic merge in vertex order: a result covered by an
		// earlier wave member is discarded (its flow was the price of the
		// parallel dispatch), everything else covers its vertices and is
		// split into connected parts.
		for k, u := range wave {
			res := &sp.results[k]
			if covered[u] || !res.violated || res.size < 2 {
				continue
			}
			for v := 0; v < n; v++ {
				if res.member[v] {
					covered[v] = true
				}
			}
			cuts = sp.emitParts(x, res.member, cuts)
		}
	}
	return sp.capCuts(cuts, maxCuts), flows
}

// screenEligible marks the forced vertices the oracle must visit for the
// LP point x. Beyond the basic screen (a profitless vertex is never in an
// optimal closure except as the forced anchor, so vertices with no
// incident fractional weight need no oracle call), the support 2-core
// screen applies when every edge weight is at most 1 up to a summed slack
// of engineTol: peeling a vertex with at most one support edge from a
// candidate set S changes its violation by 1 − x_e ≥ −max(0, x_e − 1), so
// any set with violation > engineTol + Σ_e max(0, x_e−1) peels down to a
// violated subset inside the 2-core of the support graph, and forcing a
// vertex there finds a cut at least as strong. Converged rounds — where
// the oracle's only job is certifying that no violated set exists — often
// have forest-supported optima whose 2-core is empty, turning the
// O(n)-flows certification sweep into zero flows.
func (sp *separator) screenEligible(x []float64) {
	eligible := sp.eligible
	n := sp.g.N()
	deg := sp.supDeg
	for v := range deg {
		deg[v] = 0
	}
	totalSlack := 0.0
	for i, e := range sp.edges {
		if x[i] > engineTol {
			deg[e.U]++
			deg[e.V]++
			if x[i] > 1 {
				totalSlack += x[i] - 1
			}
		}
	}
	if totalSlack > engineTol {
		// Slack too large for the peeling bound: fall back to the basic
		// positive-incident-weight screen.
		for v := 0; v < n; v++ {
			eligible[v] = deg[v] >= 1
		}
		return
	}
	// Iteratively strip support leaves; what survives is the 2-core.
	queue := sp.stack[:0]
	for v := 0; v < n; v++ {
		if deg[v] == 1 {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		if deg[v] != 1 {
			continue
		}
		deg[v] = 0
		for _, i := range sp.incident[v] {
			if x[i] <= engineTol {
				continue
			}
			e := sp.edges[i]
			w := e.U + e.V - v
			if deg[w] > 0 {
				deg[w]--
				if deg[w] == 1 {
					queue = append(queue, int32(w))
				}
			}
		}
	}
	sp.stack = queue[:0]
	for v := 0; v < n; v++ {
		eligible[v] = deg[v] >= 2
	}
}

// emitParts splits a closure set into the connected components of the
// induced subgraph and records the genuinely violated ones: x(E[S]) =
// Σ_parts x(E[S_i]) and |S|−1 ≥ Σ(|S_i|−1), so whenever S is violated some
// connected part is violated at least as much, and the per-part constraints
// are stronger and sparser.
func (sp *separator) emitParts(x []float64, member []bool, cuts []*cut) []*cut {
	n := sp.g.N()
	seen := sp.partSeen
	for v := 0; v < n; v++ {
		seen[v] = false
	}
	for s := 0; s < n; s++ {
		if !member[s] || seen[s] {
			continue
		}
		ids := []int32{int32(s)}
		stack := append(sp.stack[:0], int32(s))
		seen[s] = true
		for len(stack) > 0 {
			u := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			sp.g.VisitNeighbors(u, func(w int) bool {
				if member[w] && !seen[w] {
					seen[w] = true
					ids = append(ids, int32(w))
					stack = append(stack, int32(w))
				}
				return true
			})
		}
		sp.stack = stack[:0]
		if len(ids) < 2 {
			continue
		}
		// Canonicalize: the search finds ids in discovery order, and the id
		// order feeds the hash and the float accumulation below.
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		edgeIdx := sp.edgesWithin(ids)
		lhs := 0.0
		for _, i := range edgeIdx {
			lhs += x[i]
		}
		viol := lhs - float64(len(ids)-1)
		if viol <= engineTol {
			continue
		}
		if c, ok := sp.record(ids, viol, edgeIdx); ok {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// capCuts sorts by violation (descending) with the canonical cut hash as a
// stable secondary key — equal-violation cuts would otherwise keep their
// arrival order, which is a per-wave artifact — and truncates. Truncated
// cuts are parked, not forgotten: they were paid for once and will revive
// for free when still violated.
func (sp *separator) capCuts(cuts []*cut, maxCuts int) []*cut {
	sort.Slice(cuts, func(i, j int) bool {
		//detlint:allow floatorder — bit-exact tie detection is the point: equal-violation cuts must fall through to the canonical hash key, or the ordering would inherit per-wave arrival order
		if cuts[i].violation != cuts[j].violation {
			return cuts[i].violation > cuts[j].violation
		}
		return cuts[i].key.less(cuts[j].key)
	})
	if maxCuts > 0 && len(cuts) > maxCuts {
		for _, dropped := range cuts[maxCuts:] {
			sp.park(dropped)
		}
		return cuts[:maxCuts]
	}
	return cuts
}

// buildTemplate assembles the round's shared closure network: a node per
// positive-weight edge (profit x_e, requiring both endpoints) and a node
// per vertex (unit cost). Per-forced-vertex variants differ only in zeroing
// one sink arc, so workers copy this template instead of rebuilding.
//
// Network layout: 0 = source, 1..m edge nodes, m+1..m+n vertex nodes,
// m+n+1 = sink.
func (sp *separator) buildTemplate(x []float64) {
	n := sp.g.N()
	m := len(sp.edges)
	if sp.template == nil {
		sp.template = maxflow.New(0)
		sp.sinkArc = make([]int, n)
	}
	src, snk := 0, m+n+1
	sp.template.Reset(m + n + 2)
	for w := range sp.stamped {
		sp.stamped[w] = false
	}
	sp.totalX = 0
	for i, e := range sp.edges {
		if x[i] <= engineTol {
			continue
		}
		sp.template.AddEdge(src, 1+i, x[i])
		sp.template.AddEdge(1+i, m+1+e.U, math.Inf(1))
		sp.template.AddEdge(1+i, m+1+e.V, math.Inf(1))
		sp.totalX += x[i]
	}
	for v := 0; v < n; v++ {
		sp.sinkArc[v] = sp.template.AddEdge(m+1+v, snk, 1)
	}
}

// ensureScratch sizes the wave result slots and screening masks.
func (sp *separator) ensureScratch(n int) {
	if sp.eligible == nil {
		sp.eligible = make([]bool, n)
		sp.covered = make([]bool, n)
		sp.supDeg = make([]int32, n)
		sp.partSeen = make([]bool, n)
		sp.waveBuf = make([]int, 0, sp.wave)
		sp.results = make([]closureResult, sp.wave)
		for k := range sp.results {
			sp.results[k].member = make([]bool, n)
		}
	}
	if sp.arenas == nil {
		sp.arenas = make([]*maxflow.Network, sp.workers)
		sp.stamped = make([]bool, sp.workers)
		for w := range sp.arenas {
			sp.arenas[w] = maxflow.New(0)
		}
	}
}

// runWave evaluates the max-closure oracle for every forced vertex of the
// wave, striping slots across the worker pool. Slot k's result depends only
// on (x, wave[k]) — each worker stamps the shared template into its own
// arena — so the outcome is identical for every worker count. Worker w
// alone touches arenas[w] and stamped[w] until the wave is done.
func (sp *separator) runWave(x []float64, wave []int) {
	sp.waveBuf = wave // retain the (possibly regrown) buffer
	workers := sp.workers
	if workers > len(wave) {
		workers = len(wave)
	}
	if workers <= 1 {
		for k, u := range wave {
			sp.closureInto(u, 0, &sp.results[k])
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(wave); k += workers {
				sp.closureInto(wave[k], w, &sp.results[k])
			}
		}(w)
	}
	wg.Wait()
}

// closureInto solves the max-closure problem forcing u ∈ S into the slot,
// on the given worker's arena. The forced vertex's unit cost is waived by
// zeroing its sink arc (a zero-capacity arc and an absent arc cut
// identically).
func (sp *separator) closureInto(u, worker int, out *closureResult) {
	n := sp.g.N()
	m := len(sp.edges)
	src, snk := 0, m+n+1
	arena := sp.arenas[worker]
	if sp.stamped[worker] {
		arena.Restamp(sp.template)
	} else {
		arena.CopyFrom(sp.template)
		sp.stamped[worker] = true
	}
	arena.SetCap(sp.sinkArc[u], 0)
	flow := arena.MaxFlow(src, snk)
	w := sp.totalX - flow // = max_{S ∋ u} x(E[S]) − (|S| − 1)
	if w <= engineTol {
		out.violated = false
		return
	}
	side := arena.MinCutSourceSide(src)
	member := out.member
	for v := 0; v < n; v++ {
		member[v] = v == u || side[m+1+v]
	}
	size := 0
	for v := 0; v < n; v++ {
		if member[v] {
			size++
		}
	}
	out.size = size
	out.violated = true
}

// record registers a canonical vertex set; ok=false means the identical cut
// is already active (so the caller must not re-add it).
func (sp *separator) record(ids []int32, violation float64, edgeIdx []int32) (*cut, bool) {
	key := keyOfIDs(ids)
	if sp.seen[key] {
		return nil, false
	}
	sp.seen[key] = true
	return &cut{
		ids:       ids,
		edgeIdx:   edgeIdx,
		size:      len(ids),
		key:       key,
		violation: violation,
	}, true
}
