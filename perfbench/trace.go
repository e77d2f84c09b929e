package main

// This file is the traced run. It replays the workload's operation stream
// in process and wraps every call into a layer's public entry point in a
// benchmark-side span — name, start, end and parent — kept in memory and
// written out at the end. An operation is a loopback round trip to an
// in-process httpapi.Server whose ServeHTTP call is timed inside the round
// trip. Below ServeHTTP the layers are called one after another on identical
// inputs, each against its own state in the same condition: the serve call
// the handler makes, then the calls below that. A span's children are the
// calls its layer makes into the layer below, so a layer's self time is its
// call's duration minus its children's, and the self times of one operation
// add up to its round trips. lp and maxflow have no call boundary reachable
// from outside forestlp; they report counts only.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"nodedp/internal/core"
	"nodedp/internal/dpnoise"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
	"nodedp/internal/mechanism"
	"nodedp/internal/privacy"
	"nodedp/internal/serve"
)

// roundTrip names an operation's top-level loopback request; the traced
// operation time is the sum of an operation's round trips.
const roundTrip = "roundtrip"

// ledgerMetrics are the self-time metrics. With unattributed_ms they add up
// to the traced operation time.
var ledgerMetrics = []string{
	"httpapi.transport_us", "httpapi.self_us", "serve.self_us", "privacy.reserve_us", "serve.delta_self_ms",
	"core.release_us", "mechanism.gem_us", "mechanism.laplace_us", "core.assemble_self_ms",
	"graph.canonicalize_ms", "graph.csr_ms", "graph.fingerprint_ms", "graph.shards_ms",
	"graph.component_fps_ms", "graph.components_ms",
	"forestlp.plan_ms", "forestlp.grid_small_ms", "forestlp.grid_giant_ms", "forestlp.grid_touched_ms",
}

// Inclusive metrics take whole call durations, children included.
const (
	planMetric    = "core.plan_ms"       // the plan-cache lookup
	ingressMetric = "httpapi.ingress_ms" // upload decode plus graph build, before planning
)

// Component classes of the forestlp counts: the blocks and the geometric
// graph (below the incremental gate), the spider, and a delta's re-planned
// merged component.
const (
	classSmall = iota
	classGiant
	classTouched
)

var (
	classNames  = [...]string{"small", "giant", "touched"}
	gridMetrics = [...]string{"forestlp.grid_small_ms", "forestlp.grid_giant_ms", "forestlp.grid_touched_ms"}
)

// countFields are the forestlp.Stats counters reported per class.
var countFields = []struct {
	name string
	get  func(forestlp.Stats) int
}{
	{"lp.solves", func(s forestlp.Stats) int { return s.LPSolves }},
	{"lp.simplex_pivots", func(s forestlp.Stats) int { return s.SimplexPivots }},
	{"lp.refactorizations", func(s forestlp.Stats) int { return s.Refactorizations }},
	{"lp.parametric_slides", func(s forestlp.Stats) int { return s.ParametricSlides }},
	{"lp.parametric_cheap_solves", func(s forestlp.Stats) int { return s.ParametricCheapSolves }},
	{"lp.incremental_fallbacks", func(s forestlp.Stats) int { return s.IncrementalFallbacks }},
	{"maxflow.calls", func(s forestlp.Stats) int { return s.MaxFlowCalls }},
	{"forestlp.cuts_added", func(s forestlp.Stats) int { return s.CutsAdded }},
	{"forestlp.cuts_revived", func(s forestlp.Stats) int { return s.CutsRevived }},
	{"forestlp.warm_cuts_reused", func(s forestlp.Stats) int { return s.WarmCutsReused }},
	{"forestlp.warm_basis_hits", func(s forestlp.Stats) int { return s.WarmBasisHits }},
	{"forestlp.fast_path_hits", func(s forestlp.Stats) int { return s.FastPathHits }},
	{"forestlp.stalled_pieces", func(s forestlp.Stats) int { return s.StalledPieces }},
}

// span is one call into a layer. parent indexes the run's spans; -1 marks
// an operation's round trip, or an auxiliary call outside the ledger.
type span struct {
	op, parent int32
	name       string
	metric     string // self-time metric charged; "" outside the ledger
	start, end time.Duration
}

type tracer struct {
	epoch time.Time
	op    int32
	spans []span
}

func (t *tracer) begin(parent int32, name, metric string) int32 {
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, metric: metric, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.epoch) }

// add records a span timed elsewhere.
func (t *tracer) add(parent int32, name, metric string, start, end time.Duration) int32 {
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, metric: metric, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// timedHandler times each httpapi.Server.ServeHTTP call of the in-process
// server and hands the times to the caller waiting for the reply.
type timedHandler struct {
	api   *httpapi.Server
	epoch time.Time
	calls chan [2]time.Duration // one call in flight at a time
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Since(h.epoch)
	h.api.ServeHTTP(w, r)
	select {
	case h.calls <- [2]time.Duration{start, time.Since(h.epoch)}:
	default: // a call whose client gave up; nobody waits for its times
	}
}

// opCounts is the deterministic work of one traced operation.
type opCounts struct {
	// work is the forestlp work by component class.
	work [3]forestlp.Stats
	// evals counts component × grid-point evaluations: the fast path's
	// attempts.
	evals int
	// The plan-cache counters the operation moved.
	subHits, subMisses, planEvictions, subEvictions int64
}

// ledger is the traced run's per-operation accounting.
type ledger struct {
	ops, failed    int64
	opNs           float64            // median traced operation time
	selfNs         map[string]float64 // ledger metric → median self time per operation
	inclusiveNs    map[string]float64
	unattributedNs float64            // opNs minus the summed self times
	counts         map[string]float64 // per-operation counts and ratios
}

// summarize turns the spans into per-operation layer times and takes their
// medians; counts average over the first countOps operations, so they
// repeat exactly whatever the run's length.
func summarize(t *tracer, oc []opCounts, countOps int) *ledger {
	n := len(oc)
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	perOp := make(map[string][]float64)
	for _, name := range append(slices.Clone(ledgerMetrics), planMetric, ingressMetric) {
		perOp[name] = make([]float64, n)
	}
	opNs := make([]float64, n)
	for i, s := range t.spans {
		d := s.end - s.start
		if s.name == roundTrip && s.parent < 0 {
			opNs[s.op] += float64(d)
		}
		if s.metric != "" {
			perOp[s.metric][s.op] += float64(d - child[i])
		}
		switch s.name {
		case "core.PlanCache.GridEval":
			perOp[planMetric][s.op] += float64(d)
		case "httpapi.decode", "graph.FromEdgesCanonical":
			perOp[ingressMetric][s.op] += float64(d)
		}
	}
	l := &ledger{
		ops:         int64(n),
		opNs:        median(opNs),
		selfNs:      make(map[string]float64),
		inclusiveNs: map[string]float64{planMetric: median(perOp[planMetric]), ingressMetric: median(perOp[ingressMetric])},
		counts:      countMetrics(oc[:min(countOps, n)]),
	}
	l.unattributedNs = l.opNs
	for _, name := range ledgerMetrics {
		l.selfNs[name] = median(perOp[name])
		l.unattributedNs -= l.selfNs[name]
	}
	return l
}

// countMetrics averages the counts per operation; ratios divide sums.
func countMetrics(oc []opCounts) map[string]float64 {
	out := make(map[string]float64)
	per := float64(max(len(oc), 1))
	var total forestlp.Stats
	var evals int
	var hits, misses, planEv, subEv int64
	for _, o := range oc {
		for c := range o.work {
			total.MergeComponent(o.work[c])
		}
		evals += o.evals
		hits += o.subHits
		misses += o.subMisses
		planEv += o.planEvictions
		subEv += o.subEvictions
	}
	for c, class := range classNames {
		for _, f := range countFields {
			sum := 0
			for _, o := range oc {
				sum += f.get(o.work[c])
			}
			out[f.name+"."+class] = float64(sum) / per
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out["forestlp.fast_path_ratio"] = ratio(int64(total.FastPathHits), int64(evals))
	out["forestlp.cuts_per_flow"] = ratio(int64(total.CutsAdded), int64(total.MaxFlowCalls))
	out["lp.cheap_slide_ratio"] = ratio(int64(total.ParametricCheapSolves), int64(total.ParametricSlides))
	out["lp.fallback_ratio"] = ratio(int64(total.IncrementalFallbacks), int64(total.LPSolves))
	out["core.subplan_hits"] = float64(hits) / per
	out["core.subplan_misses"] = float64(misses) / per
	out["core.subplan_hit_ratio"] = ratio(hits, hits+misses)
	out["core.plan_evictions"] = float64(planEv) / per
	out["core.subplan_evictions"] = float64(subEv) / per
	return out
}

// gemInputs are the arguments core passes to the mechanism for a release
// at queryEps of one op.
type gemInputs struct {
	grid, qs, fdeltas       []float64
	epsHalf, epsCount, beta float64
}

// countShare and defaultBeta repeat core.Options' defaults: the share of a
// cc query's ε spent on the vertex count, and β = 1/ln ln n clamped to ½.
const countShare = 0.2

func defaultBeta(n int) float64 {
	b := 0.5
	if n > 15 {
		b = 1 / math.Log(math.Log(float64(n)))
	}
	return math.Min(b, 0.5)
}

// gemInputsFor takes the grid, GEM qualities and grid values of each op
// from an in-process release's diagnostics at queryEps.
func gemInputsFor(ctx context.Context, sess *serve.Session, n int) ([3]gemInputs, error) {
	var out [3]gemInputs
	for k, op := range queryOps {
		res, err := release(ctx, sess, httpapi.QueryRequest{Op: op, Epsilon: queryEps, Seed: 1})
		if err != nil {
			return out, err
		}
		in := &out[k]
		for _, ev := range res.Evaluations {
			in.grid = append(in.grid, ev.Delta)
			in.qs = append(in.qs, ev.Q)
			in.fdeltas = append(in.fdeltas, ev.FDelta)
		}
		in.epsHalf = queryEps / 2
		if op == "cc" {
			in.epsCount = queryEps * countShare
			in.epsHalf = (queryEps - in.epsCount) / 2
		}
		in.beta = defaultBeta(n)
	}
	return out, nil
}

// tracedEnv holds the state the traced operations call into: an
// in-process httpapi.Server behind a loopback listener, whose session is in
// the same state as the serve session and plan cache the lower calls use.
type tracedEnv struct {
	ctx      context.Context
	m        *mix
	br       []bridge
	fps      []string
	wantHits int64

	handler *timedHandler
	hs      *http.Server
	served  chan error
	c       *client
	path    string // the query or PATCH path of the server's session

	// query-http and open-cold: what the query chain calls into.
	sess *serve.Session
	acct privacy.Accountant
	ge   *core.GridEval
	gem  [3]gemInputs

	// live-mutate: what the delta chain calls into.
	cache   *core.PlanCache
	live    *graph.Graph
	prevCSR *graph.CSR

	upload, body []byte
}

func newTracedEnv(ctx context.Context, w workload, m *mix, br []bridge, fps []string, epoch time.Time) (*tracedEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &tracedEnv{
		ctx: ctx, m: m, br: br, fps: fps, wantHits: int64(m.nontrivial - 2),
		handler: &timedHandler{api: httpapi.New(httpapi.Config{}), epoch: epoch, calls: make(chan [2]time.Duration, 1)},
		served:  make(chan error, 1), c: newClient(ln.Addr().String()),
	}
	e.hs = &http.Server{Handler: e.handler}
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := e.setup(w); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *tracedEnv) setup(w workload) error {
	if w.name == "open-cold" {
		e.upload = e.m.uploadBody(coldTenant, "")
		sess, err := serve.Open(e.ctx, e.m.g, serve.SessionOptions{TotalBudget: budget})
		if err != nil {
			return err
		}
		e.gem, err = gemInputsFor(e.ctx, sess, e.m.g.N())
		return err
	}
	status, raw, err := e.untimed("POST", "/v1/graphs", e.m.uploadBody(benchTenant, ""))
	if err != nil {
		return err
	}
	id, err := checkCreated(status, raw, e.m.fingerprint)
	if err != nil {
		return err
	}
	if e.sess, err = openReference(e.ctx, e.m.g.Clone()); err != nil {
		return err
	}
	if w.name == "query-http" {
		e.path = "/v1/sessions/" + id + "/query"
		if e.acct, err = privacy.NewSequential(budget); err != nil {
			return err
		}
		if e.ge, _, err = core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight).GridEval(e.ctx, e.m.g, core.Options{}); err != nil {
			return err
		}
		e.gem, err = gemInputsFor(e.ctx, e.sess, e.m.g.N())
		return err
	}
	e.path = "/v1/graphs/" + id
	e.cache = core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight)
	e.live = e.m.g.Clone()
	if _, _, err := e.cache.GridEval(e.ctx, e.live, core.Options{}); err != nil {
		return err
	}
	e.prevCSR = graph.NewCSR(e.live)
	return nil
}

func (e *tracedEnv) close() {
	e.c.close()
	e.hs.Close()
	<-e.served
}

// roundTrip sends one request under a round-trip span, with the server's
// ServeHTTP call as its child span.
func (e *tracedEnv) roundTrip(tr *tracer, method, path string, body []byte) (sh int32, status int, raw []byte, err error) {
	rt := tr.begin(-1, roundTrip, "httpapi.transport_us")
	status, raw, err = e.c.do(method, path, body)
	tr.end(rt)
	if err != nil {
		return 0, 0, nil, err
	}
	call := <-e.handler.calls
	return tr.add(rt, "httpapi.Server.ServeHTTP", "httpapi.self_us", call[0], call[1]), status, raw, nil
}

// untimed sends one request outside the ledger.
func (e *tracedEnv) untimed(method, path string, body []byte) (int, []byte, error) {
	status, raw, err := e.c.do(method, path, body)
	if err == nil {
		<-e.handler.calls
	}
	return status, raw, err
}

// queryOp traces query i of the query-http stream.
func (e *tracedEnv) queryOp(tr *tracer, i int) error {
	k := i % len(queryOps)
	e.body = appendQuery(e.body[:0], queryOps[k], "t", i)
	sh, status, raw, err := e.roundTrip(tr, "POST", e.path, e.body)
	if err != nil {
		return err
	}
	if err := checkQuery(status, raw, queryOps[k]); err != nil {
		return err
	}
	return e.queryChain(tr, sh, e.sess, e.acct, e.ge, k)
}

// queryChain traces one release below the HTTP layer: the serve query, the
// accountant reservation, the core release on the grid evaluation, and the
// mechanism calls core makes inside it.
func (e *tracedEnv) queryChain(tr *tracer, parent int32, sess *serve.Session, acct privacy.Accountant, ge *core.GridEval, k int) error {
	op := queryOps[k]
	s := tr.begin(parent, "serve.Session.query", "serve.self_us")
	_, err := release(e.ctx, sess, httpapi.QueryRequest{Op: op, Epsilon: queryEps})
	tr.end(s)
	if err != nil {
		return err
	}
	r := tr.begin(s, "privacy.Accountant.Reserve", "privacy.reserve_us")
	err = acct.Reserve(queryEps)
	tr.end(r)
	if err != nil {
		return err
	}
	rng := dpnoise.NewCryptoRand()
	opts := core.Options{Epsilon: queryEps, Rand: rng}
	c := tr.begin(s, "core.EstimateFromGrid", "core.release_us")
	switch op {
	case "cc":
		_, err = core.EstimateComponentCountFromGrid(e.ctx, ge, opts)
	case "cc-known-n":
		_, err = core.EstimateComponentCountKnownNFromGrid(e.ctx, ge, opts)
	default:
		_, err = core.EstimateSpanningForestSizeFromGrid(e.ctx, ge, opts)
	}
	tr.end(c)
	if err != nil {
		return err
	}
	in := &e.gem[k]
	if op == "cc" {
		l := tr.begin(c, "mechanism.LaplaceRelease", "mechanism.laplace_us")
		_, err = mechanism.LaplaceRelease(rng, float64(ge.N()), 1, in.epsCount)
		tr.end(l)
		if err != nil {
			return err
		}
	}
	g := tr.begin(c, "mechanism.GEM", "mechanism.gem_us")
	sel, err := mechanism.GEM(rng, in.grid, in.qs, in.epsHalf, in.beta)
	tr.end(g)
	if err != nil {
		return err
	}
	l := tr.begin(c, "mechanism.LaplaceRelease", "mechanism.laplace_us")
	_, err = mechanism.LaplaceRelease(rng, in.fdeltas[sel.Index], sel.Delta, in.epsHalf)
	tr.end(l)
	return err
}

// openColdOp traces upload-to-first-release i of the open-cold stream.
func (e *tracedEnv) openColdOp(tr *tracer, i int, oc *opCounts) error {
	// Three of the calls below plan mix2k from scratch. Each starts from a
	// collected heap, so that their differences measure the layers between
	// them rather than when the collector ran.
	runtime.GC()
	shUp, status, raw, err := e.roundTrip(tr, "POST", "/v1/graphs", e.upload)
	if err != nil {
		return err
	}
	id, err := checkCreated(status, raw, e.m.fingerprint)
	if err != nil {
		return err
	}
	e.body = appendQuery(e.body[:0], "cc", "cold", i)
	shQ, status, raw, err := e.roundTrip(tr, "POST", "/v1/sessions/"+id+"/query", e.body)
	if err != nil {
		return err
	}
	if err := checkQuery(status, raw, "cc"); err != nil {
		return err
	}
	if status, _, err = e.untimed("DELETE", "/v1/sessions/"+id, nil); err != nil || status != http.StatusNoContent {
		return fmt.Errorf("delete: status %d: %v", status, err)
	}

	// What the upload handler does before planning: decode, then build.
	dec := tr.begin(-1, "httpapi.decode", "")
	var up httpapi.CreateSessionRequest
	jd := json.NewDecoder(bytes.NewReader(e.upload))
	jd.DisallowUnknownFields()
	err = jd.Decode(&up)
	tr.end(dec)
	if err != nil {
		return err
	}
	edges := make([]graph.Edge, len(up.Edges))
	for j, ed := range up.Edges {
		edges[j] = graph.NewEdge(ed[0], ed[1])
	}
	cn := tr.begin(shUp, "graph.FromEdgesCanonical", "graph.canonicalize_ms")
	g, err := graph.FromEdgesCanonical(up.N, edges)
	tr.end(cn)
	if err != nil {
		return err
	}
	cache := core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight)
	runtime.GC()
	op := tr.begin(shUp, "serve.Open", "serve.self_us")
	sess, err := serve.Open(e.ctx, g, serve.SessionOptions{TotalBudget: budget, Cache: cache})
	tr.end(op)
	if err != nil {
		return err
	}
	runtime.GC()
	ge, err := e.planChain(tr, op, core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight), g, -1, oc)
	if err != nil {
		return err
	}
	c := tr.begin(op, "graph.NewCSR", "graph.csr_ms")
	graph.NewCSR(g)
	tr.end(c)

	acct, err := privacy.NewSequential(budget)
	if err != nil {
		return err
	}
	return e.queryChain(tr, shQ, sess, acct, ge, 0)
}

// planChain traces a plan-cache lookup and, below it, the graph and
// forestlp calls its miss path makes: the CSR snapshot, fingerprint, shard
// and component-fingerprint passes, then one forestlp plan and grid sweep
// per component the lookup evaluates — every non-trivial component on a
// cold open, or on a delta (touched ≥ 0) the one containing vertex touched.
func (e *tracedEnv) planChain(tr *tracer, parent int32, cache *core.PlanCache, g *graph.Graph, touched int, oc *opCounts) (*core.GridEval, error) {
	before := cache.Stats()
	p := tr.begin(parent, "core.PlanCache.GridEval", "core.assemble_self_ms")
	ge, _, err := cache.GridEval(e.ctx, g, core.Options{})
	tr.end(p)
	if err != nil {
		return nil, err
	}
	after := cache.Stats()
	oc.subHits += after.SubPlanHits - before.SubPlanHits
	oc.subMisses += after.SubPlanMisses - before.SubPlanMisses
	oc.planEvictions += after.Evictions - before.Evictions
	oc.subEvictions += after.SubPlanEvictions - before.SubPlanEvictions

	s := tr.begin(p, "graph.NewCSR", "graph.csr_ms")
	csr := graph.NewCSR(g)
	tr.end(s)
	s = tr.begin(p, "graph.CSR.Fingerprint", "graph.fingerprint_ms")
	csr.Fingerprint()
	tr.end(s)
	s = tr.begin(p, "graph.CSR.ComponentShards", "graph.shards_ms")
	shards := csr.ComponentShards()
	tr.end(s)
	s = tr.begin(p, "graph.CSR.ComponentFingerprints", "graph.component_fps_ms")
	csr.ComponentFingerprints()
	tr.end(s)

	grid, err := mechanism.PowerOfTwoGrid(float64(g.N()))
	if err != nil {
		return nil, err
	}
	// The component sweeps repeat the lookup's planning: start them, too,
	// from a collected heap.
	runtime.GC()
	for _, sh := range shards {
		if sh.N() < 2 {
			continue
		}
		class := classSmall
		switch {
		case touched >= 0:
			if _, found := slices.BinarySearch(sh.Orig, touched); !found {
				continue
			}
			class = classTouched
		case sh.Orig[0] >= e.m.spiderLo && sh.Orig[0] < e.m.spiderHi:
			class = classGiant
		}
		s = tr.begin(p, "forestlp.NewPlanCSR", "forestlp.plan_ms")
		plan := forestlp.NewPlanCSR(&sh.CSR)
		tr.end(s)
		s = tr.begin(p, "forestlp.Plan.GridValues", gridMetrics[class])
		_, st, err := plan.GridValues(e.ctx, grid, forestlp.Options{})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		oc.work[class].MergeComponent(st)
		oc.evals += len(grid)
	}
	return ge, nil
}

// deltaOp traces delta k of the live-mutate stream.
func (e *tracedEnv) deltaOp(tr *tracer, k int, oc *opCounts) error {
	e.body = appendPatch(e.body[:0], e.br, k)
	sh, status, raw, err := e.roundTrip(tr, "PATCH", e.path, e.body)
	if err != nil {
		return err
	}
	if err := checkPatch(status, raw, k, e.fps[k], e.wantHits); err != nil {
		return err
	}
	b := e.br[k]
	adds := []graph.Edge{graph.NewEdge(b.u, b.v)}
	var removes []graph.Edge
	if k > 0 {
		removes = []graph.Edge{graph.NewEdge(e.br[k-1].u, e.br[k-1].v)}
	}
	ap := tr.begin(sh, "serve.Session.ApplyDelta", "serve.delta_self_ms")
	res, err := e.sess.ApplyDelta(e.ctx, adds, removes)
	tr.end(ap)
	if err != nil {
		return err
	}
	if res.SubPlanMisses != 1 || res.SubPlanHits != e.wantHits {
		return fmt.Errorf("delta %d re-planned %d components and reused %d, want 1 and %d", k, res.SubPlanMisses, res.SubPlanHits, e.wantHits)
	}
	n := e.live.N()
	for _, edges := range [][]graph.Edge{adds, removes} {
		s := tr.begin(ap, "graph.Canonicalize", "graph.canonicalize_ms")
		_, err := graph.Canonicalize(n, edges)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	// The live-graph edit is serve's own work, inside its self time.
	if err := e.live.AddEdge(b.u, b.v); err != nil {
		return err
	}
	if k > 0 && !e.live.RemoveEdge(e.br[k-1].u, e.br[k-1].v) {
		return errors.New("previous bridge missing from the live graph")
	}
	if _, err := e.planChain(tr, ap, e.cache, e.live, b.u, oc); err != nil {
		return err
	}
	s := tr.begin(ap, "graph.CSR.Components", "graph.components_ms")
	e.prevCSR.Components()
	tr.end(s)
	s = tr.begin(ap, "graph.NewCSR", "graph.csr_ms")
	next := graph.NewCSR(e.live)
	tr.end(s)
	s = tr.begin(ap, "graph.CSR.Components", "graph.components_ms")
	next.Components()
	tr.end(s)
	e.prevCSR = next
	return nil
}

// runTraced runs the workload's stream in process for the given seconds,
// and at least countOps operations.
func runTraced(ctx context.Context, w workload, m *mix, br []bridge, fps []string, seconds int) (*ledger, *tracer, error) {
	tr := &tracer{epoch: time.Now()}
	e, err := newTracedEnv(ctx, w, m, br, fps, tr.epoch)
	if err != nil {
		return nil, nil, fmt.Errorf("traced run set-up: %w", err)
	}
	defer e.close()
	limit := w.maxTracedOps
	if w.name == "live-mutate" {
		limit = min(limit, len(br))
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var (
		oc     []opCounts
		failed int64
	)
	for i := 0; i < limit && (i < w.countOps || time.Now().Before(deadline)); i++ {
		tr.op = int32(i)
		var c opCounts
		switch w.name {
		case "query-http":
			err = e.queryOp(tr, i)
		case "open-cold":
			err = e.openColdOp(tr, i, &c)
		default:
			err = e.deltaOp(tr, i, &c)
		}
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: traced %s operation %d: %v\n", w.name, i, err)
			}
		}
		oc = append(oc, c)
	}
	l := summarize(tr, oc, w.countOps)
	l.failed = failed
	return l, tr, nil
}

// writeSpans writes the run's spans as tab-separated lines.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "op\tspan\tparent\tname\tmetric\tstart_ns\tend_ns")
	for i, s := range tr.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.metric, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of xs (the mean of the middle two for an even count); 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
