// Package httpapi exposes the session serving layer (internal/serve) over
// HTTP/JSON: a multi-tenant network front end for the node-private
// component-count estimator, so queries no longer require linking the Go
// package. The API is
//
//	POST   /v1/graphs              upload a graph, open a budgeted session
//	PATCH  /v1/graphs/{id}         apply a live edge delta to a session's graph
//	POST   /v1/sessions/{id}/query one private query
//	POST   /v1/sessions/{id}/batch a Do-backed batch of queries
//	GET    /v1/sessions/{id}       budget + plan-cache introspection
//	DELETE /v1/sessions/{id}       close a session, freeing its slot
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                Prometheus text exposition
//
// Determinism contract: a query with an explicit seed returns a release
// bit-identical to the same seeded query on an in-process serve.Session —
// the handler calls the identical code path and encoding/json round-trips
// float64 exactly — which is what keeps the network layer honest with the
// release path underneath it.
//
// Load shedding: at most Config.MaxInflight /v1 requests run concurrently;
// excess requests are rejected immediately with 429, a Retry-After header,
// and a typed "overloaded" JSON error, so an overloaded daemon degrades by
// refusing work it cannot start instead of queueing unboundedly. Sessions
// live in a bounded multi-tenant registry with idle-TTL eviction.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodedp/internal/core"
	"nodedp/internal/fault"
	"nodedp/internal/graph"
	"nodedp/internal/obs"
	"nodedp/internal/privacy"
	"nodedp/internal/serve"
)

// Defaults for Config's zero fields.
const (
	DefaultMaxInflight = 64
	DefaultReadLimit   = 8 << 20 // 8 MiB of JSON per request
	// DefaultCacheWeight is the per-tenant plan-cache budget in
	// GridEval.Cost units (≈ (n+m)·grid points per plan) — a few hundred
	// mid-sized plans.
	DefaultCacheWeight = 1 << 22
)

// Config tunes the server. The zero value is ready for production-shaped
// defaults; tests inject Now for deterministic TTL behavior.
type Config struct {
	// MaxInflight caps concurrently executing /v1 requests; excess
	// requests are shed with 429 + Retry-After.
	MaxInflight int
	// ReadLimit caps the request body size in bytes.
	ReadLimit int64
	// Registry bounds the session table.
	Registry RegistryConfig
	// Cache, when non-nil, is ONE plan cache shared by every tenant —
	// only safe when all tenants are mutually trusting (a shared cache's
	// hit/miss behavior is an equality oracle on other tenants' graphs).
	// When nil (the default), each tenant gets its own cost-weighted
	// cache, dropped when the tenant's last session leaves the registry:
	// repeated uploads of the same graph by the SAME tenant skip
	// planning, and no tenant can observe another's cache state.
	Cache *core.PlanCache
	// CacheWeight bounds each per-tenant cache (GridEval.Cost units);
	// 0 means DefaultCacheWeight. Ignored when Cache is injected.
	CacheWeight int64
	// CacheFile, when non-empty, names the snapshot file behind SaveCache
	// and POST /v1/admin/cache/save: the daemon persists the shared plan
	// cache there on drain and on its periodic timer, and reloads it on
	// the next boot (warm restarts). Requires Cache — per-tenant caches
	// are ephemeral by design, because their lifetime is tied to tenant
	// presence. A snapshot holds exact data-dependent values; protect the
	// file like the graphs themselves.
	CacheFile string
	// RetryJitterSeed seeds the deterministic jitter added to 429
	// Retry-After values, so shed clients spread their retries instead of
	// returning in lockstep. 0 means a fixed default seed; tests pin it
	// for golden assertions. The jitter PRNG never touches the release
	// path.
	RetryJitterSeed uint64
	// TraceSeed seeds the identities of traces whose requests carry no
	// request ID (a request ID always wins — its trace identity is derived
	// from the ID itself, so identically-seeded daemons serving the same
	// query file agree on every trace). 0 means a fixed default seed.
	// Trace identity is bookkeeping, never noise: it cannot influence a
	// release.
	TraceSeed uint64
	// TraceRing bounds the in-memory ring of recent traces behind
	// GET /v1/admin/traces: 0 means DefaultTraceRing, negative disables
	// retention (requests are still traced for stage metrics).
	TraceRing int
	// SlowQueryThreshold, when positive, logs any /v1 request slower than
	// this to SlowQueryLog (one line per offense, with route, status,
	// duration, and trace ID for cross-referencing the trace ring).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; nil means os.Stderr.
	SlowQueryLog io.Writer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ on this
	// server's mux (never the global DefaultServeMux). Profiles expose
	// operational timing only; gate the port accordingly.
	EnablePprof bool
	// Audit, when non-nil, receives every privacy-accountant event of
	// every session opened by this server (see serve.SessionOptions.Audit
	// and internal/obs.AuditLog).
	Audit obs.AuditSink
	// Now overrides the clock (tests). It also drives span timing, so a
	// test-injected deterministic clock pins stage histograms exactly.
	Now func() time.Time
}

// DefaultTraceRing is the trace-ring capacity when Config.TraceRing is 0.
const DefaultTraceRing = 128

// Server is the HTTP front end. Create with New; it implements
// http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	registry *registry
	metrics  *metrics
	now      func() time.Time

	// shared is the injected all-tenant cache (Config.Cache), nil in the
	// default per-tenant mode.
	shared *core.PlanCache
	// caches maps tenant → its private plan cache (per-tenant mode). A
	// tenant's cache lives exactly as long as it has a session in the
	// registry, which bounds memory to live tenants × CacheWeight.
	cachesMu sync.Mutex
	caches   map[string]*core.PlanCache

	inflight atomic.Int64
	draining atomic.Bool

	// retryRng drives the Retry-After jitter (seeded, mutex-guarded; not
	// on the release path).
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// traces retains recent finished traces for GET /v1/admin/traces (nil
	// when retention is disabled); traceSeq disambiguates traces of
	// requests that carry no request ID.
	traces   *obs.Ring
	traceSeq atomic.Uint64
	// slowMu serializes slow-query log lines (the writer is shared).
	slowMu sync.Mutex
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.ReadLimit <= 0 {
		cfg.ReadLimit = DefaultReadLimit
	}
	if cfg.CacheWeight <= 0 {
		cfg.CacheWeight = DefaultCacheWeight
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	jitterSeed := cfg.RetryJitterSeed
	if jitterSeed == 0 {
		jitterSeed = 1
	}
	if cfg.TraceSeed == 0 {
		cfg.TraceSeed = 1
	}
	if cfg.SlowQueryLog == nil {
		cfg.SlowQueryLog = os.Stderr
	}
	s := &Server{
		cfg:      cfg,
		registry: newRegistry(cfg.Registry, now),
		metrics:  newMetrics(),
		now:      now,
		shared:   cfg.Cache,
		caches:   make(map[string]*core.PlanCache),
		retryRng: rand.New(rand.NewPCG(jitterSeed, jitterSeed)),
	}
	switch {
	case cfg.TraceRing == 0:
		s.traces = obs.NewRing(DefaultTraceRing)
	case cfg.TraceRing > 0:
		s.traces = obs.NewRing(cfg.TraceRing)
	}
	if s.shared == nil {
		s.registry.onTenantGone = s.dropTenantCache
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/graphs", s.handleCreateSession)
	s.route("PATCH /v1/graphs/{id}", s.handlePatchGraph)
	s.route("POST /v1/admin/cache/save", s.handleCacheSave)
	s.route("GET /v1/admin/traces", s.handleTraces)
	s.route("POST /v1/sessions/{id}/query", s.handleQuery)
	s.route("POST /v1/sessions/{id}/batch", s.handleBatch)
	s.route("GET /v1/sessions/{id}", s.handleSessionInfo)
	s.route("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		// Mounted on this mux only — importing net/http/pprof also
		// registers on http.DefaultServeMux, which this server never
		// serves.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, while in-flight and follow-up requests
// on existing connections still complete (http.Server.Shutdown handles the
// connection lifecycle).
func (s *Server) StartDrain() { s.draining.Store(true) }

// Sweep evicts idle sessions once; the daemon calls it on a timer so slots
// free even with zero traffic.
func (s *Server) Sweep() { s.registry.sweep() }

// ErrPersistenceNotConfigured is returned by SaveCache when the server has
// no shared cache or no snapshot path to save it to.
var ErrPersistenceNotConfigured = errors.New("httpapi: cache persistence not configured (a shared Cache and a CacheFile are both required)")

// SaveCache persists the shared plan cache to Config.CacheFile (atomic
// write-then-rename) and returns how many entries were written. The daemon
// calls it on drain and on its periodic save timer; the admin endpoint
// exposes it on demand.
func (s *Server) SaveCache() (int, error) {
	if s.shared == nil || s.cfg.CacheFile == "" {
		return 0, ErrPersistenceNotConfigured
	}
	return s.shared.SaveFile(s.cfg.CacheFile)
}

// SaveCacheIfChanged is SaveCache gated by the cache's dirty bit: when no
// persisted state changed since the last successful save, the write is
// skipped (and counted in the cache's SnapshotSavesSkipped). The daemon's
// periodic save timer uses this; drain and the admin endpoint keep the
// unconditional SaveCache.
func (s *Server) SaveCacheIfChanged() (entries int, saved bool, err error) {
	if s.shared == nil || s.cfg.CacheFile == "" {
		return 0, false, ErrPersistenceNotConfigured
	}
	return s.shared.SaveFileIfChanged(s.cfg.CacheFile)
}

// handleCacheSave implements POST /v1/admin/cache/save: an on-demand
// snapshot of the shared plan cache, so operators can persist warm state
// before a planned restart without waiting for the periodic timer.
func (s *Server) handleCacheSave(w http.ResponseWriter, _ *http.Request) {
	n, err := s.SaveCache()
	switch {
	case errors.Is(err, ErrPersistenceNotConfigured):
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"cache persistence not configured (start the daemon with -cache-file)")
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, "saving plan-cache snapshot: "+err.Error())
	default:
		writeJSON(w, http.StatusOK, SaveCacheResponse{Entries: n})
	}
}

// handleTraces implements GET /v1/admin/traces?tenant=&limit=: the most
// recent finished traces of exactly the named tenant, newest first. Scoping
// matches the rest of the unauthenticated admin surface (a tenant name
// reveals only that tenant's own operational telemetry); span attributes
// carry work counters and stage labels, never graph data or releases.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "trace retention is disabled on this daemon")
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if err := sanitizeTenant(tenant); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	limit := 32
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	snaps := s.traces.Recent(tenant, limit)
	out := TracesResponse{Traces: make([]TraceItem, len(snaps))}
	for i, sn := range snaps {
		out.Traces[i] = toTraceItem(sn)
	}
	writeJSON(w, http.StatusOK, out)
}

// toTraceItem maps a trace snapshot to the wire (span IDs as fixed-width
// hex; maps are fine — encoding/json emits sorted keys).
func toTraceItem(sn obs.TraceSnapshot) TraceItem {
	item := TraceItem{
		TraceID:   fmt.Sprintf("%016x", sn.TraceID),
		Name:      sn.Name,
		Tenant:    sn.Tenant,
		RequestID: sn.RequestID,
		Spans:     make([]SpanItem, len(sn.Spans)),
	}
	for i, sp := range sn.Spans {
		si := SpanItem{
			ID:              fmt.Sprintf("%016x", sp.ID),
			Name:            sp.Name,
			DurationSeconds: sp.Duration.Seconds(),
		}
		if sp.ParentID != 0 {
			si.ParentID = fmt.Sprintf("%016x", sp.ParentID)
		}
		if len(sp.Counters) > 0 {
			si.Counters = make(map[string]int64, len(sp.Counters))
			for _, a := range sp.Counters {
				si.Counters[a.Key] = a.Value
			}
		}
		if len(sp.Labels) > 0 {
			si.Labels = make(map[string]string, len(sp.Labels))
			for _, l := range sp.Labels {
				si.Labels[l.Key] = l.Value
			}
		}
		item.Spans[i] = si
	}
	return item
}

// tenantCache returns the plan cache serving a tenant: the injected
// shared cache, or the tenant's private cache (created on demand).
func (s *Server) tenantCache(tenant string) *core.PlanCache {
	if s.shared != nil {
		return s.shared
	}
	s.cachesMu.Lock()
	defer s.cachesMu.Unlock()
	c, ok := s.caches[tenant]
	if !ok {
		c = core.NewPlanCacheWeighted(s.cfg.CacheWeight)
		s.caches[tenant] = c
	}
	return c
}

// dropTenantCache releases a tenant's cache once its last session leaves
// the registry (registry.onTenantGone).
func (s *Server) dropTenantCache(tenant string) {
	s.cachesMu.Lock()
	delete(s.caches, tenant)
	s.cachesMu.Unlock()
}

// cacheTotals aggregates plan-cache counters across tenants for /metrics;
// per-tenant detail is visible only to that tenant's session holders.
func (s *Server) cacheTotals() core.CacheStats {
	if s.shared != nil {
		return s.shared.Stats()
	}
	var total core.CacheStats
	s.cachesMu.Lock()
	caches := make([]*core.PlanCache, 0, len(s.caches))
	// Tenant order is sorted so the aggregation (and any future
	// order-sensitive field) is byte-stable run to run, not map-ordered.
	for _, tenant := range sortedKeys(s.caches) {
		caches = append(caches, s.caches[tenant])
	}
	s.cachesMu.Unlock()
	for _, c := range caches {
		st := c.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Coalesced += st.Coalesced
		total.Evictions += st.Evictions
		total.Entries += st.Entries
		total.Weight += st.Weight
		total.SubPlanHits += st.SubPlanHits
		total.SubPlanMisses += st.SubPlanMisses
		total.SubPlanEvictions += st.SubPlanEvictions
		total.SubPlanEntries += st.SubPlanEntries
		total.SnapshotSaves += st.SnapshotSaves
		total.SnapshotLoads += st.SnapshotLoads
		total.SnapshotEntriesSaved += st.SnapshotEntriesSaved
		total.SnapshotEntriesLoaded += st.SnapshotEntriesLoaded
		total.SnapshotEntriesSkipped += st.SnapshotEntriesSkipped
		total.SnapshotSavesSkipped += st.SnapshotSavesSkipped
		total.EngineRefactorizations += st.EngineRefactorizations
		total.EngineParametricSlides += st.EngineParametricSlides
		total.EngineParametricCheapSolves += st.EngineParametricCheapSolves
		total.EngineIncrementalFallbacks += st.EngineIncrementalFallbacks
		total.EngineStalledPieces += st.EngineStalledPieces
	}
	return total
}

// statusRecorder captures the response code for metrics and whether
// anything was written yet (panic containment can only substitute a typed
// 500 while the header is still open).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(b)
}

// retryAfterSeconds renders base plus a seeded jitter in [0, spread] for
// a 429's Retry-After header, de-synchronizing shed clients.
func (s *Server) retryAfterSeconds(base, spread int) string {
	s.retryMu.Lock()
	j := s.retryRng.IntN(spread + 1)
	s.retryMu.Unlock()
	return strconv.Itoa(base + j)
}

// route registers a /v1 handler wrapped with admission control, body
// limiting, and metrics. pattern must be "METHOD /path".
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		// Load shedding before any work: a request beyond the cap costs
		// one atomic increment and an immediate 429.
		if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
			s.inflight.Add(-1)
			s.metrics.addShed()
			// Jittered so a burst of shed clients spreads its retries
			// instead of stampeding back on the same second.
			w.Header().Set("Retry-After", s.retryAfterSeconds(1, 2))
			writeError(w, http.StatusTooManyRequests, CodeOverloaded,
				fmt.Sprintf("at inflight capacity (%d); retry after the indicated delay", s.cfg.MaxInflight))
			s.metrics.observe(pattern, http.StatusTooManyRequests, 0)
			return
		}
		defer s.inflight.Add(-1)
		s.metrics.routeInflight(pattern, 1)
		defer s.metrics.routeInflight(pattern, -1)

		start := s.now()
		// Every admitted /v1 request gets a trace. The provisional identity
		// comes from the configured seed plus a boot-local sequence; a
		// handler that learns its request ID rekeys the trace so identity
		// derives from the ID alone (deterministic across daemons). Span
		// timing runs on s.now — the same injectable clock as the latency
		// metrics — and is operational telemetry only: no released value
		// ever reads it.
		tr := obs.NewTraceWithClock(pattern, s.cfg.TraceSeed+s.traceSeq.Add(1), s.now)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		// Finalization must run even when the handler aborts the connection
		// (http.ErrAbortHandler): the trace and its stage durations are how
		// an operator sees the aborted request at all.
		finalize := func(code int) {
			tr.Root().SetCounter("http_status", int64(code))
			tr.Root().End()
			snap := tr.Snapshot()
			if s.traces != nil {
				s.traces.Add(snap)
			}
			s.metrics.observeStages(snap)
			elapsed := s.now().Sub(start)
			s.metrics.observe(pattern, code, elapsed)
			if t := s.cfg.SlowQueryThreshold; t > 0 && elapsed >= t {
				s.slowMu.Lock()
				fmt.Fprintf(s.cfg.SlowQueryLog, "slow-query route=%q code=%d elapsed=%s trace=%016x request=%q\n",
					pattern, code, elapsed, snap.TraceID, snap.RequestID)
				s.slowMu.Unlock()
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.ReadLimit)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		// Panic containment: a panic below this frame answers with a typed
		// `internal` error (when the header is still open), increments
		// nodedp_panics_recovered_total, and lets the daemon keep serving.
		// http.ErrAbortHandler is re-raised — it is the sanctioned
		// "abort this connection" signal and net/http handles it quietly.
		func() {
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					finalize(rec.code)
					panic(p)
				}
				s.metrics.addPanic()
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, CodeInternal,
						fmt.Sprintf("internal error: request handler panicked: %v", p))
				}
			}()
			h(rec, r)
		}()
		finalize(rec.code)
	})
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "+err.Error())
		return
	}
	if err := sanitizeTenant(req.Tenant); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	r = s.identifyRequest(r, req.Tenant, req.RequestID)
	g, err := buildGraph(&req, int(s.cfg.ReadLimit))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	comp, err := privacy.ParseComposition(req.Accountant)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	// Claim the registry slot BEFORE the plan build: a full registry must
	// refuse the upload in O(1), not after paying the Δ-grid evaluation
	// (and thrashing live tenants' cache entries with a plan nobody can
	// use).
	commit, abort, err := s.registry.reserve(req.Tenant)
	if err != nil {
		var full errCapacity
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", s.retryAfterSeconds(5, 2))
			writeError(w, http.StatusTooManyRequests, CodeOverloaded, full.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	opts := serve.SessionOptions{
		TotalBudget:     req.Budget,
		Composition:     comp,
		Delta:           req.Delta,
		DiscreteRelease: req.DiscreteRelease,
		Cache:           s.tenantCache(req.Tenant),
		Audit:           s.cfg.Audit,
	}
	sess, err := serve.Open(r.Context(), g, opts)
	if err != nil {
		abort()
		code, ec := http.StatusBadRequest, CodeInvalidRequest
		switch {
		case errors.Is(err, fault.ErrInjected):
			// Injected internal failure during the plan build: transient,
			// retryable, not the uploader's fault.
			code, ec = http.StatusInternalServerError, CodeInternal
		case errIsCancel(err):
			// The uploader went away (or its deadline passed) mid-plan:
			// that's the client's timeout, not a server fault.
			code, ec = http.StatusGatewayTimeout, CodeDeadlineExceeded
		}
		writeError(w, code, ec, err.Error())
		return
	}
	entry, err := commit(sess)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st := sess.Stats()
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		SessionID:   entry.id,
		Fingerprint: sess.Fingerprint().String(),
		CacheHit:    st.CacheHit,
		Accountant:  st.Accountant,
		Budget:      st.TotalBudget,
		Delta:       st.Delta,
	})
}

// buildGraph materializes the uploaded graph from whichever encoding the
// request used. It refuses an upload that implies more than maxN vertices
// before allocating any: a vertex costs hundreds of bytes, so a short
// header could otherwise claim gigabytes.
func buildGraph(req *CreateSessionRequest, maxN int) (*graph.Graph, error) {
	switch {
	case len(req.Edges) > 0 && req.EdgeList != "":
		return nil, fmt.Errorf("edges and edge_list are mutually exclusive")
	case req.EdgeList != "":
		g, err := graph.ReadEdgeList(strings.NewReader(req.EdgeList), maxN)
		if err != nil {
			return nil, fmt.Errorf("parsing edge_list: %w", err)
		}
		return g, nil
	case req.N <= 0:
		return nil, fmt.Errorf("n must be positive (got %d)", req.N)
	case req.N > maxN:
		return nil, fmt.Errorf("n = %d exceeds the limit of %d vertices (the read limit)", req.N, maxN)
	default:
		// Canonical ingress: duplicate edges and self-loops in the upload
		// body collapse silently, so two uploads of the same simple graph
		// always fingerprint identically and share a plan-cache entry,
		// however noisy their edge lists were. (The edge_list text format
		// stays strict — a duplicate line there is corruption of an exact
		// exchange format, and a rejected upload builds no graph at all, so
		// it can never produce a divergent fingerprint.)
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			edges[i] = graph.NewEdge(e[0], e[1])
		}
		g, err := graph.FromEdgesCanonical(req.N, edges)
		if err != nil {
			return nil, fmt.Errorf("building graph: %w", err)
		}
		return g, nil
	}
}

// handlePatchGraph implements PATCH /v1/graphs/{id}: a live-graph delta on
// the session's served graph. The handler is admission-controlled and
// traced like every /v1 route; the serve layer serializes concurrent
// deltas, audits each one in the privacy ledger, and swaps the serving
// snapshot atomically, so racing queries see the pre- or post-delta graph,
// never a torn one. While the delta runs, the session is held against the
// idle-TTL sweep and DELETE (409) — a mutation must never lose its ledger
// mid-commit.
func (s *Server) handlePatchGraph(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req PatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "+err.Error())
		return
	}
	if len(req.Adds) == 0 && len(req.Removes) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "delta has no adds and no removes")
		return
	}
	r = s.identifyRequest(r, entry.tenant, req.RequestID)

	adds := make([]graph.Edge, len(req.Adds))
	for i, e := range req.Adds {
		adds[i] = graph.NewEdge(e[0], e[1])
	}
	removes := make([]graph.Edge, len(req.Removes))
	for i, e := range req.Removes {
		removes[i] = graph.NewEdge(e[0], e[1])
	}

	entry.beginMutation()
	res, err := entry.sess.ApplyDelta(r.Context(), adds, removes)
	entry.endMutation(s.now())
	if err != nil {
		// The taxonomy mirrors queries: injected faults are retryable 500s,
		// cancelations 504 (the delta committed nothing — retry-safe),
		// validation 400. Deltas never spend ε on any path.
		writeQueryError(w, err)
		return
	}
	s.metrics.addDeltas(1)
	writeJSON(w, http.StatusOK, PatchResponse{
		Added:         res.Added,
		Removed:       res.Removed,
		NoOp:          res.NoOp,
		Fingerprint:   res.Fingerprint.String(),
		PlanCacheHit:  res.PlanCacheHit,
		SubPlanHits:   res.SubPlanHits,
		SubPlanMisses: res.SubPlanMisses,
	})
}

// identifyRequest attaches the request's serving identity once the handler
// has parsed its body: the trace is rekeyed onto the request ID (when one
// was sent — identity then derives from the ID alone, so identically-seeded
// daemons serving the same query file agree on every trace and audit line),
// tagged with the tenant, and the (tenant, request ID) pair is placed in
// the context for the serve layer's audit records.
func (s *Server) identifyRequest(r *http.Request, tenant, requestID string) *http.Request {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		if requestID != "" {
			tr.Rekey(requestID)
		}
		tr.SetTenant(tenant)
	}
	ctx := obs.ContextWithRequestInfo(r.Context(), obs.RequestInfo{Tenant: tenant, RequestID: requestID})
	return r.WithContext(ctx)
}

// lookup resolves the {id} path segment to a live session or writes 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	entry, ok := s.registry.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no session %q (expired, deleted, or never created)", id))
		return nil, false
	}
	return entry, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req QueryRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "+err.Error())
		return
	}
	op, mode, err := parseOp(req.Op)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	r = s.identifyRequest(r, entry.tenant, req.RequestID)

	// Idempotent replay: a request ID claims a slot in the session's
	// dedup table. Duplicates of a recorded release replay it without
	// re-charging; duplicates racing an in-flight leader wait for its
	// outcome. The leader MUST finish its entry on every exit path —
	// including a panic — or waiters and future retries would hang.
	var de *dedupEntry
	finished := false
	if req.RequestID != "" {
		var leader bool
		de, leader = entry.dedup.begin(req.RequestID)
		if !leader {
			select {
			case <-de.done:
			case <-r.Context().Done():
				writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
					"query canceled while waiting for the original attempt: "+r.Context().Err().Error())
				return
			}
			if de.errInfo != nil {
				writeError(w, de.status, de.errInfo.Code, de.errInfo.Message)
				return
			}
			// A replayed release: the budget was charged and the query
			// served exactly once, on the original attempt. The header lets
			// retrying clients count replays (client.Telemetry) and
			// operators distinguish replays from fresh charges.
			w.Header().Set(ReplayedHeader, "1")
			if tr := obs.TraceFrom(r.Context()); tr != nil {
				tr.Root().SetCounter("dedup_replayed", 1)
			}
			entry.sess.RecordReplay(obs.RequestInfoFrom(r.Context()), req.RequestID)
			writeJSON(w, http.StatusOK, de.resp)
			return
		}
		defer func() {
			if !finished {
				entry.dedup.finishError(req.RequestID, de, http.StatusInternalServerError,
					ErrorInfo{Code: CodeInternal, Message: "internal error: query attempt aborted"})
			}
		}()
	}

	q := serve.QueryOptions{Epsilon: req.Epsilon, Mode: mode, Seed: req.Seed}
	var res core.Result
	if op == serve.OpSpanningForestSize {
		res, err = entry.sess.SpanningForestSize(r.Context(), q)
	} else {
		res, err = entry.sess.ComponentCount(r.Context(), q)
	}
	if err != nil {
		if de != nil {
			// Every error path charges nothing durable (rejections spend
			// nothing; cancellations refund), so the ID is forgotten and a
			// retry re-executes.
			info := toErrorInfo(err)
			entry.dedup.finishError(req.RequestID, de, queryErrorStatus(info.Code), info)
			finished = true
		}
		writeQueryError(w, err)
		return
	}
	qr := toQueryResponse(req, res)
	if de != nil {
		// Record before writing: if the response write dies (connection
		// abort), the retry must replay this exact release rather than
		// charge the budget a second time.
		entry.dedup.finishSuccess(req.RequestID, de, qr)
		finished = true
	}
	s.metrics.addQueries(1)
	writeJSON(w, http.StatusOK, qr)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	var req BatchRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "batch has no queries")
		return
	}
	r = s.identifyRequest(r, entry.tenant, req.RequestID)
	reqs := make([]serve.Request, len(req.Queries))
	for i, q := range req.Queries {
		op, mode, err := parseOp(q.Op)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("query %d: %v", i, err))
			return
		}
		reqs[i] = serve.Request{Op: op, Epsilon: q.Epsilon, Mode: mode, Seed: q.Seed}
	}
	resps := entry.sess.Do(r.Context(), reqs)
	out := BatchResponse{Responses: make([]BatchItem, len(resps))}
	served := int64(0)
	for i, resp := range resps {
		if resp.Err != nil {
			info := toErrorInfo(resp.Err)
			out.Responses[i] = BatchItem{Error: &info}
			continue
		}
		served++
		qr := toQueryResponse(req.Queries[i], resp.Result)
		out.Responses[i] = BatchItem{Result: &qr}
	}
	s.metrics.addQueries(served)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := entry.sess.Stats()
	// The cache snapshot is the session's own tenant's cache: hit/miss
	// counters and entry weights over someone else's uploads would be an
	// equality oracle on their sensitive graphs.
	cs := s.tenantCache(entry.tenant).Stats()
	writeJSON(w, http.StatusOK, SessionInfo{
		SessionID:   entry.id,
		Tenant:      entry.tenant,
		Fingerprint: entry.sess.Fingerprint().String(),
		Budget: BudgetInfo{
			Total:      st.TotalBudget,
			Spent:      st.Spent,
			Remaining:  st.Remaining,
			Accountant: st.Accountant,
			Delta:      st.Delta,
		},
		Queries:        st.Queries,
		Admitted:       st.Admitted,
		Rejected:       st.Rejected,
		PlansBuilt:     st.PlansBuilt,
		CacheHit:       st.CacheHit,
		Deltas:         st.Deltas,
		DeltasRejected: st.DeltasRejected,
		CreatedUnix:    entry.created.Unix(),
		IdleSeconds:    s.now().Sub(entry.idleSince()).Seconds(),
		Cache: CacheInfo{
			Hits:                   cs.Hits,
			Misses:                 cs.Misses,
			Coalesced:              cs.Coalesced,
			Evictions:              cs.Evictions,
			Entries:                cs.Entries,
			Weight:                 cs.Weight,
			WeightCapacity:         cs.WeightCapacity,
			EntryWeights:           cs.EntryWeights,
			SubPlanHits:            cs.SubPlanHits,
			SubPlanMisses:          cs.SubPlanMisses,
			SubPlanEvictions:       cs.SubPlanEvictions,
			SubPlanEntries:         cs.SubPlanEntries,
			SnapshotSaves:          cs.SnapshotSaves,
			SnapshotLoads:          cs.SnapshotLoads,
			SnapshotEntriesSaved:   cs.SnapshotEntriesSaved,
			SnapshotEntriesLoaded:  cs.SnapshotEntriesLoaded,
			SnapshotEntriesSkipped: cs.SnapshotEntriesSkipped,
		},
	})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	switch s.registry.remove(r.PathValue("id")) {
	case removeMissing:
		writeError(w, http.StatusNotFound, CodeNotFound, "no such session")
	case removeBusy:
		writeError(w, http.StatusConflict, CodeConflict,
			"session has a graph mutation in flight; retry after it completes")
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	live, evicted := s.registry.snapshot()
	cs := s.cacheTotals()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, map[string]float64{
		"nodedp_sessions_live":                             float64(live),
		"nodedp_sessions_evicted_total":                    float64(evicted),
		"nodedp_inflight_requests":                         float64(s.inflight.Load()),
		"nodedp_plan_cache_hits_total":                     float64(cs.Hits),
		"nodedp_plan_cache_misses_total":                   float64(cs.Misses),
		"nodedp_plan_cache_coalesced_total":                float64(cs.Coalesced),
		"nodedp_plan_cache_evictions_total":                float64(cs.Evictions),
		"nodedp_plan_cache_entries":                        float64(cs.Entries),
		"nodedp_plan_cache_weight":                         float64(cs.Weight),
		"nodedp_plan_cache_subplan_hits_total":             float64(cs.SubPlanHits),
		"nodedp_plan_cache_subplan_misses_total":           float64(cs.SubPlanMisses),
		"nodedp_plan_cache_subplan_evictions_total":        float64(cs.SubPlanEvictions),
		"nodedp_plan_cache_subplan_entries":                float64(cs.SubPlanEntries),
		"nodedp_plan_cache_snapshot_saves_total":           float64(cs.SnapshotSaves),
		"nodedp_plan_cache_snapshot_loads_total":           float64(cs.SnapshotLoads),
		"nodedp_plan_cache_snapshot_entries_saved_total":   float64(cs.SnapshotEntriesSaved),
		"nodedp_plan_cache_snapshot_entries_loaded_total":  float64(cs.SnapshotEntriesLoaded),
		"nodedp_plan_cache_snapshot_entries_skipped_total": float64(cs.SnapshotEntriesSkipped),
		"nodedp_plan_cache_snapshot_saves_skipped_total":   float64(cs.SnapshotSavesSkipped),
		"nodedp_engine_refactorizations":                   float64(cs.EngineRefactorizations),
		"nodedp_engine_parametric_slides":                  float64(cs.EngineParametricSlides),
		"nodedp_engine_parametric_cheap_solves":            float64(cs.EngineParametricCheapSolves),
		"nodedp_engine_incremental_fallbacks":              float64(cs.EngineIncrementalFallbacks),
		"nodedp_engine_stalled_pieces":                     float64(cs.EngineStalledPieces),
	})
}

// toQueryResponse maps a core.Result to the wire, exposing only private
// (or post-processed-private) fields.
func toQueryResponse(req QueryRequest, res core.Result) QueryResponse {
	return QueryResponse{
		Value:      res.Value,
		DeltaHat:   res.Delta,
		NoiseScale: res.NoiseScale,
		NHat:       res.NHat,
		Epsilon:    req.Epsilon,
		Op:         req.Op,
	}
}

// toErrorInfo maps a serving-layer error to the wire taxonomy.
func toErrorInfo(err error) ErrorInfo {
	switch {
	case errors.Is(err, serve.ErrBudgetExhausted):
		return ErrorInfo{Code: CodeBudgetExhausted, Message: err.Error()}
	case errors.Is(err, fault.ErrInjected):
		// An injected failure models an internal fault (I/O error, arena
		// exhaustion, numerical distress), not a bad request: answer 500 so
		// retrying clients treat it as transient.
		return ErrorInfo{Code: CodeInternal, Message: err.Error()}
	case errIsCancel(err):
		// The serving layer refunded the reserved ε (refund-on-cancel in
		// serve.Session.query), so this failure is retry-safe.
		return ErrorInfo{Code: CodeDeadlineExceeded, Message: "query canceled: " + err.Error()}
	default:
		return ErrorInfo{Code: CodeInvalidRequest, Message: err.Error()}
	}
}

// queryErrorStatus maps a taxonomy code to its HTTP status.
func queryErrorStatus(code ErrorCode) int {
	switch code {
	case CodeBudgetExhausted:
		return http.StatusForbidden
	case CodeInternal:
		return http.StatusInternalServerError
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// writeQueryError writes a single-query failure with its taxonomy status.
func writeQueryError(w http.ResponseWriter, err error) {
	info := toErrorInfo(err)
	writeError(w, queryErrorStatus(info.Code), info.Code, info.Message)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Injected response-write failure: aborts the connection the way a
	// mid-write TCP reset would, exercising the client retry + request-ID
	// replay contract end to end.
	if fault.Hit("httpapi.write") != nil {
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, ec ErrorCode, msg string) {
	writeJSON(w, code, ErrorBody{Error: ErrorInfo{Code: ec, Message: msg}})
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
