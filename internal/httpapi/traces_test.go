package httpapi

// Tests for the tracing surface of the HTTP layer: the /v1/admin/traces
// ring, tenant scoping, counter attribution from the solver layers, the
// dedup replay marker, and pprof mounting.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// postJSON posts body as JSON and returns the raw response (callers need
// the headers, which doJSON discards).
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// queryBody builds a seeded single-query request body.
func queryBody(requestID string) QueryRequest {
	return QueryRequest{Op: "cc", Epsilon: 0.25, Seed: 7, RequestID: requestID}
}

// planSpans returns a plan build's core.plan span and its one
// forestlp.grid sweep, checking the sweep has one forestlp.point child per
// grid point.
func planSpans(t *testing.T, tr TraceItem) (plan, sweep SpanItem) {
	t.Helper()
	sweeps := 0
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "core.plan":
			plan = sp
		case "forestlp.grid":
			sweep = sp
			sweeps++
		}
	}
	if sweeps != 1 {
		t.Fatalf("%s: %d forestlp.grid spans, want one per plan build: %+v", tr.RequestID, sweeps, tr.Spans)
	}
	var points int64
	for _, sp := range tr.Spans {
		if sp.Name == "forestlp.point" && sp.ParentID == sweep.ID {
			points++
		}
	}
	if g := sweep.Counters["grid_points"]; g == 0 || points != g {
		t.Fatalf("%s: %d point spans under the sweep, want its grid_points %d", tr.RequestID, points, g)
	}
	return plan, sweep
}

func TestAdminTracesTenantScopedSpanTree(t *testing.T) {
	srv, ts := testServer(t, Config{})
	g := testGraph(t) // three planted blocks: 0-7, 8-15, 16-23
	sess := openSession(t, ts.URL, CreateSessionRequest{
		Tenant: "acme", N: g.N(), Edges: edgePairs(g), Budget: 4, RequestID: "upload-1",
	})

	var qr QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.SessionID+"/query", queryBody("q-1"), &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}

	var out TracesResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/admin/traces?tenant=acme", nil, &out); code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("got %d acme traces, want 2 (upload + query)", len(out.Traces))
	}
	// Newest first: the query trace leads.
	q := out.Traces[0]
	if q.RequestID != "q-1" || q.Tenant != "acme" {
		t.Fatalf("query trace identity %+v", q)
	}
	// A query runs on the already-planned grid: its tree is root →
	// serve.admit + serve.execute.
	byName := map[string]SpanItem{}
	for _, sp := range q.Spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{"POST /v1/sessions/{id}/query", "serve.admit", "serve.execute"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from query trace: %+v", name, q.Spans)
		}
	}
	if byName["serve.admit"].Counters["admitted"] != 1 {
		t.Fatalf("admit span counters %v", byName["serve.admit"].Counters)
	}
	// The upload trace carries the planning spans: core.plan (a cold
	// cache miss) over one forestlp sweep that evaluates every component,
	// whose work counters are exactly the session's engine stats.
	up := out.Traces[1]
	if up.RequestID != "upload-1" {
		t.Fatalf("upload trace identity %+v", up)
	}
	plan, sweep := planSpans(t, up)
	if v, ok := plan.Counters["cache_hit"]; !ok || v != 0 {
		t.Fatalf("core.plan counters %v, want cache_hit=0 on a cold upload", plan.Counters)
	}
	entry, ok := srv.registry.get(sess.SessionID)
	if !ok {
		t.Fatal("uploaded session not in the registry")
	}
	engine := entry.sess.Stats().Engine
	for key, want := range map[string]int{
		"components":            engine.Components,
		"fast_path_hits":        engine.FastPathHits,
		"lp_solves_total":       engine.LPSolves,
		"cuts_added":            engine.CutsAdded,
		"max_flow_calls":        engine.MaxFlowCalls,
		"simplex_pivots":        engine.SimplexPivots,
		"warm_cuts_reused":      engine.WarmCutsReused,
		"warm_basis_hits":       engine.WarmBasisHits,
		"parametric_slides":     engine.ParametricSlides,
		"incremental_fallbacks": engine.IncrementalFallbacks,
	} {
		if got := sweep.Counters[key]; got != int64(want) {
			t.Errorf("upload sweep counter %s = %d, session engine stats say %d", key, got, want)
		}
	}
	if engine.Components != 3 || engine.FastPathHits == 0 {
		t.Fatalf("engine stats %+v, want 3 components with attributable work", engine)
	}

	// A bridge PATCH re-plans only the merged component: one sweep over
	// one component, every other component a sub-plan hit.
	var pr PatchResponse
	if code := doJSON(t, "PATCH", ts.URL+"/v1/graphs/"+sess.SessionID,
		PatchRequest{Adds: [][2]int{{0, 8}}, RequestID: "patch-1"}, &pr); code != http.StatusOK {
		t.Fatalf("patch status %d: %+v", code, pr)
	}
	if pr.SubPlanMisses != 1 || pr.SubPlanHits != 1 {
		t.Fatalf("bridge patch %+v, want 1 sub-plan miss and 1 hit", pr)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/admin/traces?tenant=acme", nil, &out); code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	if out.Traces[0].RequestID != "patch-1" {
		t.Fatalf("newest trace %+v, want the patch", out.Traces[0])
	}
	if _, sweep := planSpans(t, out.Traces[0]); sweep.Counters["components"] != 1 {
		t.Fatalf("patch sweep components = %d, want 1 (the touched component)", sweep.Counters["components"])
	}

	// Foreign tenants see nothing.
	if code := doJSON(t, "GET", ts.URL+"/v1/admin/traces?tenant=mallory", nil, &out); code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("foreign tenant sees %d traces", len(out.Traces))
	}
}

func TestAdminTracesDisabledAndLimitValidation(t *testing.T) {
	_, ts := testServer(t, Config{TraceRing: -1})
	var eb ErrorBody
	if code := doJSON(t, "GET", ts.URL+"/v1/admin/traces", nil, &eb); code != http.StatusBadRequest {
		t.Fatalf("disabled ring: status %d", code)
	}

	_, ts2 := testServer(t, Config{})
	if code := doJSON(t, "GET", ts2.URL+"/v1/admin/traces?limit=zero", nil, &eb); code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d", code)
	}
}

// TestReplayedHeaderOnDedupHit: the second identical request ID must replay
// the recorded release and say so via the Nodedp-Replayed header.
func TestReplayedHeaderOnDedupHit(t *testing.T) {
	_, ts := testServer(t, Config{})
	g := testGraph(t)
	sess := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 4})

	var first QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.SessionID+"/query", queryBody("dup-1"), &first); code != http.StatusOK {
		t.Fatalf("first attempt status %d", code)
	}
	resp := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/query", queryBody("dup-1"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d", resp.StatusCode)
	}
	if resp.Header.Get(ReplayedHeader) != "1" {
		t.Fatalf("replay response missing %s header", ReplayedHeader)
	}
	resp2 := postJSON(t, ts.URL+"/v1/sessions/"+sess.SessionID+"/query", queryBody("dup-2"))
	defer resp2.Body.Close()
	if resp2.Header.Get(ReplayedHeader) != "" {
		t.Fatalf("fresh request carries %s header", ReplayedHeader)
	}
}

func TestPprofMountedOnlyWhenEnabled(t *testing.T) {
	_, off := testServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}

	_, on := testServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline: status %d, %d bytes", resp.StatusCode, len(body))
	}
}
