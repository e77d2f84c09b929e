package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodedp/internal/core"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/serve"
)

// testServer starts an httptest server over a fresh Server.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// testGraph is the workload shared by the HTTP tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return generate.PlantedComponents([]int{8, 8, 8}, 0.4, generate.NewRand(11))
}

// edgePairs renders g's edges for a JSON upload.
func edgePairs(g *graph.Graph) [][2]int {
	var pairs [][2]int
	for _, e := range g.Edges() {
		pairs = append(pairs, [2]int{e.U, e.V})
	}
	return pairs
}

// doJSON posts body to url and decodes the response into out, returning
// the HTTP status.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		buf = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response (%d: %s): %v", method, url, resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode
}

// openSession uploads the test graph and returns its session id.
func openSession(t *testing.T, url string, req CreateSessionRequest) CreateSessionResponse {
	t.Helper()
	var out CreateSessionResponse
	if code := doJSON(t, "POST", url+"/v1/graphs", req, &out); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if out.SessionID == "" || out.Fingerprint == "" {
		t.Fatalf("create session response incomplete: %+v", out)
	}
	return out
}

// TestHTTPSeededQueryMatchesInProcess is the determinism contract of the
// ISSUE: a seeded query issued over HTTP returns a release bit-identical
// to the equivalent in-process Session call on the same graph.
func TestHTTPSeededQueryMatchesInProcess(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	created := openSession(t, ts.URL, CreateSessionRequest{
		N: g.N(), Edges: edgePairs(g), Budget: 10,
	})

	inproc, err := serve.Open(context.Background(), g, serve.SessionOptions{TotalBudget: 10})
	if err != nil {
		t.Fatal(err)
	}

	for i, tc := range []struct {
		op   string
		mode serve.Mode
		sf   bool
	}{
		{op: "cc"},
		{op: "cc-known-n", mode: serve.KnownN},
		{op: "sf", sf: true},
	} {
		seed := uint64(100 + i)
		eps := 0.25 * float64(i+1)
		var want core.Result
		q := serve.QueryOptions{Epsilon: eps, Mode: tc.mode, Seed: seed}
		if tc.sf {
			want, err = inproc.SpanningForestSize(context.Background(), q)
		} else {
			want, err = inproc.ComponentCount(context.Background(), q)
		}
		if err != nil {
			t.Fatal(err)
		}

		var got QueryResponse
		code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
			QueryRequest{Op: tc.op, Epsilon: eps, Seed: seed}, &got)
		if code != http.StatusOK {
			t.Fatalf("op %s: status %d", tc.op, code)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Errorf("op %s: HTTP value %v != in-process %v (bit difference)", tc.op, got.Value, want.Value)
		}
		if got.DeltaHat != want.Delta || got.NoiseScale != want.NoiseScale {
			t.Errorf("op %s: HTTP (Δ̂=%v scale=%v) != in-process (Δ̂=%v scale=%v)",
				tc.op, got.DeltaHat, got.NoiseScale, want.Delta, want.NoiseScale)
		}
		if !tc.sf && math.Float64bits(got.NHat) != math.Float64bits(want.NHat) {
			t.Errorf("op %s: HTTP n̂ %v != in-process %v", tc.op, got.NHat, want.NHat)
		}
	}
}

// TestHTTPBatchMatchesSequential: a batch equals the same queries issued
// one at a time on a fresh session over the same graph.
func TestHTTPBatchMatchesSequential(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})

	one := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 10})
	queries := []QueryRequest{
		{Op: "cc", Epsilon: 0.5, Seed: 1},
		{Op: "sf", Epsilon: 0.25, Seed: 2},
		{Op: "cc-known-n", Epsilon: 0.25, Seed: 3},
	}
	sequential := make([]QueryResponse, len(queries))
	for i, q := range queries {
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+one.SessionID+"/query", q, &sequential[i]); code != http.StatusOK {
			t.Fatalf("sequential query %d: status %d", i, code)
		}
	}

	two := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 10})
	if !two.CacheHit {
		t.Error("second upload of an identical graph should hit the plan cache")
	}
	var batch BatchResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+two.SessionID+"/batch",
		BatchRequest{Queries: queries}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Responses) != len(queries) {
		t.Fatalf("batch returned %d responses for %d queries", len(batch.Responses), len(queries))
	}
	for i, item := range batch.Responses {
		if item.Error != nil {
			t.Fatalf("batch item %d failed: %+v", i, item.Error)
		}
		if math.Float64bits(item.Result.Value) != math.Float64bits(sequential[i].Value) {
			t.Errorf("batch item %d value %v != sequential %v", i, item.Result.Value, sequential[i].Value)
		}
	}
}

// TestHTTPErrorTaxonomy drives each typed error code.
func TestHTTPErrorTaxonomy(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	check := func(name string, wantStatus int, wantCode ErrorCode, gotStatus int, body ErrorBody) {
		t.Helper()
		if gotStatus != wantStatus || body.Error.Code != wantCode {
			t.Errorf("%s: got (%d, %q), want (%d, %q) — %s",
				name, gotStatus, body.Error.Code, wantStatus, wantCode, body.Error.Message)
		}
	}

	var eb ErrorBody
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/nope/query",
		QueryRequest{Op: "cc", Epsilon: 0.1}, &eb)
	check("unknown session", http.StatusNotFound, CodeNotFound, code, eb)

	eb = ErrorBody{}
	code = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "cc", Epsilon: 5}, &eb)
	check("budget exhausted", http.StatusForbidden, CodeBudgetExhausted, code, eb)

	eb = ErrorBody{}
	code = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "bogus", Epsilon: 0.1}, &eb)
	check("bad op", http.StatusBadRequest, CodeInvalidRequest, code, eb)

	eb = ErrorBody{}
	code = doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"n": 4, "edges": [][2]int{{0, 1}}, "budget": 1, "bogus_field": true}, &eb)
	check("unknown field", http.StatusBadRequest, CodeInvalidRequest, code, eb)

	eb = ErrorBody{}
	code = doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"n": 4, "edges": [][2]int{{0, 1}}, "budget": 1, "sep_wave_width": 32}, &eb)
	check("removed sep_wave_width field", http.StatusBadRequest, CodeInvalidRequest, code, eb)

	for _, field := range []string{"workers", "sep_workers"} {
		eb = ErrorBody{}
		code = doJSON(t, "POST", ts.URL+"/v1/graphs",
			map[string]any{"n": 4, "edges": [][2]int{{0, 1}}, "budget": 1, field: 4}, &eb)
		check("removed "+field+" field", http.StatusBadRequest, CodeInvalidRequest, code, eb)
	}

	eb = ErrorBody{}
	code = doJSON(t, "POST", ts.URL+"/v1/graphs",
		CreateSessionRequest{N: 4, Edges: [][2]int{{0, 1}}, Budget: 1, Accountant: "renyi"}, &eb)
	check("bad accountant", http.StatusBadRequest, CodeInvalidRequest, code, eb)

	// Budget exhaustion spent nothing: a query that fits still succeeds.
	var qr QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "cc", Epsilon: 1, Seed: 9}, &qr); code != http.StatusOK {
		t.Fatalf("affordable query after rejection: status %d", code)
	}
}

// TestHTTPLoadShedding: requests beyond MaxInflight are rejected with 429,
// Retry-After, and the overloaded code — while a slot is freed they
// succeed again.
func TestHTTPLoadShedding(t *testing.T) {
	g := testGraph(t)
	s, ts := testServer(t, Config{MaxInflight: 1})
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 100})

	// Hold the single inflight slot by parking a request inside the
	// handler: simplest is to saturate via the inflight counter directly
	// plus a real request to observe the 429 path end to end.
	s.inflight.Add(1)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/"+created.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeOverloaded {
		t.Errorf("shed body = %s (err %v), want overloaded code", body, err)
	}
	s.inflight.Add(-1)

	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("after shedding cleared: status %d", code)
	}

	// /healthz and /metrics bypass admission: they must answer even at
	// saturation, or the orchestrator kills a merely busy daemon.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz at saturation: %d", hr.StatusCode)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics at saturation: %d", mr.StatusCode)
	}
	for _, want := range []string{
		"nodedp_http_requests_total",
		"nodedp_http_requests_shed_total 1",
		"nodedp_sessions_live 1",
		"nodedp_plan_cache_misses_total 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}

// TestHTTPRegistryLimits: per-tenant caps and idle-TTL eviction, on an
// injected clock.
func TestHTTPRegistryLimits(t *testing.T) {
	g := testGraph(t)
	var now atomic.Int64
	base := time.Unix(1700000000, 0)
	clock := func() time.Time { return base.Add(time.Duration(now.Load())) }
	_, ts := testServer(t, Config{
		Registry: RegistryConfig{MaxSessions: 3, MaxPerTenant: 2, IdleTTL: time.Minute},
		Now:      clock,
	})
	upload := CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1, Tenant: "acme"}

	a := openSession(t, ts.URL, upload)
	_ = openSession(t, ts.URL, upload)

	// Third session for the same tenant: per-tenant cap → overloaded.
	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", upload, &eb); code != http.StatusTooManyRequests || eb.Error.Code != CodeOverloaded {
		t.Fatalf("tenant cap: got (%d, %q)", code, eb.Error.Code)
	}
	// A different tenant still fits.
	other := upload
	other.Tenant = "globex"
	_ = openSession(t, ts.URL, other)

	// Global cap now full.
	eb = ErrorBody{}
	third := upload
	third.Tenant = "initech"
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", third, &eb); code != http.StatusTooManyRequests {
		t.Fatalf("global cap: got %d", code)
	}

	// Advance past the TTL: every session expires, slots free, and the
	// expired id answers 404.
	now.Store(int64(2 * time.Minute))
	_ = openSession(t, ts.URL, third)
	eb = ErrorBody{}
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+a.SessionID, nil, &eb); code != http.StatusNotFound || eb.Error.Code != CodeNotFound {
		t.Fatalf("expired session: got (%d, %q), want (404, not_found)", code, eb.Error.Code)
	}
}

// TestHTTPDeleteSession: DELETE frees the slot and subsequent queries 404.
func TestHTTPDeleteSession(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+created.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "cc", Epsilon: 0.1}, &eb); code != http.StatusNotFound {
		t.Fatalf("query after delete: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+created.SessionID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
}

// TestHTTPEdgeListUpload: the text exchange format round-trips to the same
// fingerprint as the JSON edges encoding.
func TestHTTPEdgeListUpload(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	viaEdges := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	var list strings.Builder
	fmt.Fprintf(&list, "n %d\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&list, "%d %d\n", e.U, e.V)
	}
	viaList := openSession(t, ts.URL, CreateSessionRequest{EdgeList: list.String(), Budget: 1})
	if viaEdges.Fingerprint != viaList.Fingerprint {
		t.Fatalf("fingerprints differ across encodings: %s vs %s", viaEdges.Fingerprint, viaList.Fingerprint)
	}
	if !viaList.CacheHit {
		t.Error("identical graph via edge_list should hit the plan cache")
	}

	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		CreateSessionRequest{N: g.N(), Edges: edgePairs(g), EdgeList: list.String(), Budget: 1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("both encodings at once: status %d", code)
	}
}

// TestHTTPSessionInfo checks the introspection endpoint's budget and cache
// bookkeeping after a known sequence of queries.
func TestHTTPSessionInfo(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	created := openSession(t, ts.URL, CreateSessionRequest{
		N: g.N(), Edges: edgePairs(g), Budget: 2, Accountant: "advanced", Delta: 1e-9,
	})
	if created.Accountant != "advanced" || created.Delta != 1e-9 {
		t.Fatalf("create response accountant = (%s, %v)", created.Accountant, created.Delta)
	}
	for i := 0; i < 3; i++ {
		var qr QueryResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
			QueryRequest{Op: "cc", Epsilon: 0.1, Seed: uint64(i + 1)}, &qr); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Budget.Accountant != "advanced" || info.Budget.Delta != 1e-9 {
		t.Errorf("info accountant = (%s, %v)", info.Budget.Accountant, info.Budget.Delta)
	}
	if info.Admitted != 3 || info.Queries != 3 || info.Rejected != 0 {
		t.Errorf("admission counters = %d/%d/%d, want 3/3/0", info.Admitted, info.Queries, info.Rejected)
	}
	if info.Budget.Spent <= 0 || info.Budget.Spent > 0.3+1e-9 {
		t.Errorf("advanced spent = %v, want in (0, 0.3]", info.Budget.Spent)
	}
	if info.Budget.Total != 2 {
		t.Errorf("total = %v, want 2", info.Budget.Total)
	}
	if info.PlansBuilt != 1 || info.CacheHit {
		t.Errorf("plan bookkeeping = (%d, %v), want (1, false)", info.PlansBuilt, info.CacheHit)
	}
	if info.Cache.Misses != 1 || info.Cache.Entries != 1 || info.Cache.Weight <= 0 {
		t.Errorf("cache info %+v, want one weighted entry from one miss", info.Cache)
	}
}

// TestHTTPConcurrentClientsNeverOverspend is the -race stress test of the
// ISSUE: N concurrent HTTP clients hammer one session under each
// accountant; the budget is never overspent, and every seeded HTTP release
// matches the in-process release with the same seed.
func TestHTTPConcurrentClientsNeverOverspend(t *testing.T) {
	g := testGraph(t)
	for _, acct := range []struct {
		name  string
		delta float64
	}{{"sequential", 0}, {"advanced", 1e-9}} {
		t.Run(acct.name, func(t *testing.T) {
			_, ts := testServer(t, Config{MaxInflight: 128})
			created := openSession(t, ts.URL, CreateSessionRequest{
				N: g.N(), Edges: edgePairs(g), Budget: 1,
				Accountant: acct.name, Delta: acct.delta,
			})

			// In-process twin for the bit-identity check.
			inproc, err := serve.Open(context.Background(), g, serve.SessionOptions{TotalBudget: 1000})
			if err != nil {
				t.Fatal(err)
			}

			const clients, perClient = 8, 12
			const eps = 0.02
			var wg sync.WaitGroup
			var admitted, rejected, mismatched atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						seed := uint64(c*perClient + i + 1)
						body, _ := json.Marshal(QueryRequest{Op: "cc", Epsilon: eps, Seed: seed})
						resp, err := http.Post(ts.URL+"/v1/sessions/"+created.SessionID+"/query",
							"application/json", bytes.NewReader(body))
						if err != nil {
							t.Error(err)
							return
						}
						raw, _ := io.ReadAll(resp.Body)
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusOK:
							admitted.Add(1)
							var qr QueryResponse
							if err := json.Unmarshal(raw, &qr); err != nil {
								t.Errorf("decoding OK response: %v", err)
								return
							}
							want, err := inproc.ComponentCount(context.Background(),
								serve.QueryOptions{Epsilon: eps, Seed: seed})
							if err != nil {
								t.Error(err)
								return
							}
							if math.Float64bits(qr.Value) != math.Float64bits(want.Value) {
								mismatched.Add(1)
							}
						case http.StatusForbidden:
							rejected.Add(1)
						default:
							t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
							return
						}
					}
				}(c)
			}
			wg.Wait()

			if mismatched.Load() != 0 {
				t.Errorf("%d HTTP releases differ from in-process releases", mismatched.Load())
			}
			var info SessionInfo
			if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info); code != http.StatusOK {
				t.Fatalf("info: status %d", code)
			}
			if info.Budget.Spent > info.Budget.Total+1e-12 {
				t.Errorf("budget overspent under %s: %v > %v", acct.name, info.Budget.Spent, info.Budget.Total)
			}
			if info.Admitted != admitted.Load() || info.Rejected != rejected.Load() {
				t.Errorf("server counters (%d adm, %d rej) != client view (%d, %d)",
					info.Admitted, info.Rejected, admitted.Load(), rejected.Load())
			}
			if admitted.Load() == 0 {
				t.Error("no queries admitted")
			}
			// The advanced accountant must beat sequential's ε/ε₀ = 50
			// admissions; sequential must stop at it.
			if acct.name == "sequential" && admitted.Load() > 50 {
				t.Errorf("sequential admitted %d > 50 = ε_total/ε₀", admitted.Load())
			}
			if acct.name == "advanced" && admitted.Load() <= 50 {
				t.Errorf("advanced admitted %d, want > 50", admitted.Load())
			}
		})
	}
}

// TestHTTPDrain: after StartDrain, /healthz flips to 503 while /v1 routes
// still answer (the connection lifecycle belongs to http.Server.Shutdown).
func TestHTTPDrain(t *testing.T) {
	g := testGraph(t)
	s, ts := testServer(t, Config{})
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})
	s.StartDrain()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", hr.StatusCode)
	}
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("in-flight work while draining: status %d", code)
	}
}

// TestHTTPReadLimit: a body over the limit is rejected, not buffered.
func TestHTTPReadLimit(t *testing.T) {
	_, ts := testServer(t, Config{ReadLimit: 512})
	huge := CreateSessionRequest{EdgeList: strings.Repeat("# padding\n", 200), Budget: 1}
	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", huge, &eb); code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", code)
	}
}

// TestHTTPVertexLimit: an upload may imply at most ReadLimit vertices,
// by its n, its edge_list header or an edge_list endpoint; a larger one
// is refused before any vertex is allocated.
func TestHTTPVertexLimit(t *testing.T) {
	_, ts := testServer(t, Config{ReadLimit: 4096})
	var created CreateSessionResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs", CreateSessionRequest{N: 4096, Budget: 1}, &created); code != http.StatusCreated {
		t.Fatalf("n = 4096 at the limit: status %d, want 201", code)
	}
	for name, req := range map[string]CreateSessionRequest{
		"n":              {N: 4097, Budget: 1},
		"edge_list n":    {EdgeList: "n 4097\n", Budget: 1},
		"edge_list edge": {EdgeList: "0 4096\n", Budget: 1},
	} {
		var eb ErrorBody
		if code := doJSON(t, "POST", ts.URL+"/v1/graphs", req, &eb); code != http.StatusBadRequest || eb.Error.Code != CodeInvalidRequest {
			t.Errorf("%s over the limit: got (%d, %q), want (400, %q) — %s",
				name, code, eb.Error.Code, CodeInvalidRequest, eb.Error.Message)
		}
	}
}

// TestHTTPTenantCacheIsolation pins the fix for the cross-tenant cache
// oracle: an identical graph uploaded by a DIFFERENT tenant must not
// report a cache hit (that bit would be a non-private equality test on the
// first tenant's sensitive graph), while re-uploads by the same tenant
// still skip planning. Dropping a tenant's last session drops its cache.
func TestHTTPTenantCacheIsolation(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	upload := func(tenant string) CreateSessionResponse {
		return openSession(t, ts.URL, CreateSessionRequest{
			N: g.N(), Edges: edgePairs(g), Budget: 1, Tenant: tenant,
		})
	}

	first := upload("acme")
	if first.CacheHit {
		t.Fatal("first upload reported a cache hit")
	}
	// Same tenant, identical graph: hit (the intended amortization).
	if again := upload("acme"); !again.CacheHit {
		t.Error("same-tenant re-upload missed the cache")
	}
	// Different tenant, identical graph: MISS, or tenant B has learned
	// that tenant A holds exactly this graph.
	other := upload("globex")
	if other.CacheHit {
		t.Error("cross-tenant upload hit the cache: graph-membership oracle")
	}
	// And B's introspection shows only B's cache activity.
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+other.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Cache.Entries != 1 || info.Cache.Hits != 0 {
		t.Errorf("tenant-scoped cache info %+v, want only globex's single miss", info.Cache)
	}

	// Deleting a tenant's only session drops its cache: the next upload
	// plans from scratch.
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+other.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if back := upload("globex"); back.CacheHit {
		t.Error("globex's cache survived its last session")
	}
}

// TestHTTPFullRegistryShedsBeforePlanning pins the ordering fix: when the
// registry is full, an upload is refused without paying the plan build —
// observable through the tenant cache, which must see no new miss.
func TestHTTPFullRegistryShedsBeforePlanning(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{Registry: RegistryConfig{MaxSessions: 1}})
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	// Registry is full: a fresh graph (same tenant) must be shed...
	big := generate.PlantedComponents([]int{12, 12}, 0.4, generate.NewRand(99))
	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		CreateSessionRequest{N: big.N(), Edges: edgePairs(big), Budget: 1}, &eb); code != http.StatusTooManyRequests {
		t.Fatalf("full registry: status %d, want 429", code)
	}
	// ...and the shed upload must not have planned anything: the tenant's
	// cache still holds exactly the first graph's single miss.
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Cache.Misses != 1 || info.Cache.Entries != 1 {
		t.Errorf("cache after shed upload: %+v, want untouched single entry", info.Cache)
	}
}
