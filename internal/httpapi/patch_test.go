package httpapi

// Tests for the live-graph mutation surface: PATCH /v1/graphs/{id}
// semantics (apply, no-op, validation, canonicalization), the keystone
// bit-identity contract (a patched session releases exactly what a cold
// upload of the mutated graph releases), the component-level plan-reuse
// introspection, and the registry's mutation-hold (satellite: DELETE and
// the idle-TTL sweep versus an in-flight ApplyDelta).

import (
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"nodedp/internal/graph"
)

// patchGraph issues one PATCH and decodes the response.
func patchGraph(t *testing.T, url, id string, req PatchRequest, out *PatchResponse) int {
	t.Helper()
	return doJSON(t, "PATCH", url+"/v1/graphs/"+id, req, out)
}

// bitEqualResponses fails unless the two releases are bit-identical in
// every released float.
func bitEqualResponses(t *testing.T, label string, a, b QueryResponse) {
	t.Helper()
	for _, f := range []struct {
		name string
		x, y float64
	}{
		{"value", a.Value, b.Value},
		{"delta_hat", a.DeltaHat, b.DeltaHat},
		{"noise_scale", a.NoiseScale, b.NoiseScale},
		{"n_hat", a.NHat, b.NHat},
	} {
		if math.Float64bits(f.x) != math.Float64bits(f.y) {
			t.Errorf("%s: %s differs: %v (%016x) vs %v (%016x)",
				label, f.name, f.x, math.Float64bits(f.x), f.y, math.Float64bits(f.y))
		}
	}
}

// TestHTTPPatchBitIdenticalToColdOpen is the keystone contract over the
// wire: after a PATCH (one cross-component merge edge added, one existing
// edge removed), a seeded query on the mutated session must release
// bit-for-bit what the same seeded query releases on a fresh daemon that
// cold-uploaded the already-mutated graph.
func TestHTTPPatchBitIdenticalToColdOpen(t *testing.T) {
	g := testGraph(t) // three planted blocks: 0-7, 8-15, 16-23
	removed := g.Edges()[0]

	_, ts := testServer(t, Config{})
	sess := openSession(t, ts.URL, CreateSessionRequest{
		Tenant: "acme", N: g.N(), Edges: edgePairs(g), Budget: 10, RequestID: "up-live",
	})

	// The blocks are edge-disjoint, so {0, 8} is a guaranteed-new merge
	// edge between the first two blocks.
	var pr PatchResponse
	if code := patchGraph(t, ts.URL, sess.SessionID, PatchRequest{
		Adds:      [][2]int{{0, 8}},
		Removes:   [][2]int{{removed.U, removed.V}},
		RequestID: "delta-1",
	}, &pr); code != http.StatusOK {
		t.Fatalf("patch: status %d: %+v", code, pr)
	}
	if pr.Added != 1 || pr.Removed != 1 || pr.NoOp {
		t.Fatalf("patch response %+v, want 1 added, 1 removed", pr)
	}
	if pr.Fingerprint == sess.Fingerprint {
		t.Fatal("fingerprint unchanged by a real delta")
	}
	// At least one block is untouched by the delta: its component
	// sub-plan(s) must be reused verbatim rather than re-evaluated.
	if pr.SubPlanHits == 0 {
		t.Errorf("delta re-plan reused no component sub-plans: %+v", pr)
	}
	if pr.SubPlanMisses == 0 {
		t.Errorf("delta touching two blocks re-evaluated no components: %+v", pr)
	}

	// Cold control: a fresh daemon uploads the mutated graph directly.
	mutated := [][2]int{{0, 8}}
	for _, e := range g.Edges() {
		if e == removed {
			continue
		}
		mutated = append(mutated, [2]int{e.U, e.V})
	}
	_, cold := testServer(t, Config{})
	coldSess := openSession(t, cold.URL, CreateSessionRequest{
		Tenant: "acme", N: g.N(), Edges: mutated, Budget: 10,
	})
	if coldSess.Fingerprint != pr.Fingerprint {
		t.Fatalf("patched fingerprint %s != cold-open fingerprint %s", pr.Fingerprint, coldSess.Fingerprint)
	}

	for _, op := range []string{"cc", "cc-known-n", "sf"} {
		q := QueryRequest{Op: op, Epsilon: 0.25, Seed: 909}
		var live, ctrl QueryResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.SessionID+"/query", q, &live); code != http.StatusOK {
			t.Fatalf("%s on patched session: status %d", op, code)
		}
		if code := doJSON(t, "POST", cold.URL+"/v1/sessions/"+coldSess.SessionID+"/query", q, &ctrl); code != http.StatusOK {
			t.Fatalf("%s on cold session: status %d", op, code)
		}
		bitEqualResponses(t, op, live, ctrl)
	}

	// Introspection: the session counted its delta, and the tenant cache
	// exposes the sub-plan counters the PATCH response reported.
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	if info.Deltas != 1 || info.DeltasRejected != 0 {
		t.Errorf("session deltas = (%d, %d), want (1, 0)", info.Deltas, info.DeltasRejected)
	}
	if info.Cache.SubPlanHits < pr.SubPlanHits || info.Cache.SubPlanEntries == 0 {
		t.Errorf("cache introspection missing sub-plan state: %+v", info.Cache)
	}
}

// TestHTTPPatchValidationAndNoOp covers the PATCH error taxonomy and the
// idempotent no-op path.
func TestHTTPPatchValidationAndNoOp(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	sess := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 2})
	existing := g.Edges()[0]

	var eb ErrorBody
	if code := doJSON(t, "PATCH", ts.URL+"/v1/graphs/s-missing", PatchRequest{Adds: [][2]int{{0, 1}}}, nil); code != http.StatusNotFound {
		t.Fatalf("patch on unknown session: status %d", code)
	}
	if code := doJSON(t, "PATCH", ts.URL+"/v1/graphs/"+sess.SessionID, PatchRequest{}, &eb); code != http.StatusBadRequest {
		t.Fatalf("empty delta: status %d", code)
	}
	eb = ErrorBody{}
	if code := doJSON(t, "PATCH", ts.URL+"/v1/graphs/"+sess.SessionID, PatchRequest{
		Adds: [][2]int{{3, 2}}, Removes: [][2]int{{2, 3}},
	}, &eb); code != http.StatusBadRequest || eb.Error.Code != CodeInvalidRequest {
		t.Fatalf("adds∩removes overlap: got (%d, %q)", code, eb.Error.Code)
	}
	var info SessionInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	if info.Fingerprint != sess.Fingerprint {
		t.Fatalf("rejected overlap changed the fingerprint: %s → %s", sess.Fingerprint, info.Fingerprint)
	}
	eb = ErrorBody{}
	if code := doJSON(t, "PATCH", ts.URL+"/v1/graphs/"+sess.SessionID, PatchRequest{
		Adds: [][2]int{{0, g.N()}},
	}, &eb); code != http.StatusBadRequest {
		t.Fatalf("out-of-range endpoint: status %d", code)
	}

	// Delta noise canonicalizes exactly like an upload body: self-loops
	// drop, duplicates collapse, and re-adding a present edge is a silent
	// set no-op — so this entire delta applies nothing.
	var pr PatchResponse
	if code := patchGraph(t, ts.URL, sess.SessionID, PatchRequest{
		Adds: [][2]int{{5, 5}, {existing.U, existing.V}, {existing.V, existing.U}},
	}, &pr); code != http.StatusOK {
		t.Fatalf("no-op delta: status %d", code)
	}
	if !pr.NoOp || pr.Added != 0 || pr.Removed != 0 {
		t.Fatalf("canonical no-op delta response %+v", pr)
	}
	if pr.Fingerprint != sess.Fingerprint {
		t.Fatalf("no-op changed the fingerprint: %s → %s", sess.Fingerprint, pr.Fingerprint)
	}

	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	if info.Deltas != 1 {
		t.Errorf("committed deltas = %d, want 1 (the no-op commits)", info.Deltas)
	}
	if info.DeltasRejected != 2 {
		// The overlap and out-of-range rejections; the empty body and the
		// 404 never reached the session.
		t.Errorf("rejected deltas = %d, want 2", info.DeltasRejected)
	}
}

// TestHTTPUploadCanonicalizesEdgeNoise is the satellite regression: two
// uploads of the same simple graph — one clean, one littered with
// duplicate edges and self-loops — must fingerprint identically and share
// one plan-cache entry.
func TestHTTPUploadCanonicalizesEdgeNoise(t *testing.T) {
	g := testGraph(t)
	_, ts := testServer(t, Config{})
	clean := openSession(t, ts.URL, CreateSessionRequest{Tenant: "acme", N: g.N(), Edges: edgePairs(g), Budget: 1})

	noisy := [][2]int{{4, 4}} // self-loop
	for _, e := range g.Edges() {
		noisy = append(noisy, [2]int{e.V, e.U}) // reversed endpoints
		noisy = append(noisy, [2]int{e.U, e.V}) // and duplicated
	}
	dup := openSession(t, ts.URL, CreateSessionRequest{Tenant: "acme", N: g.N(), Edges: noisy, Budget: 1})
	if dup.Fingerprint != clean.Fingerprint {
		t.Fatalf("noisy upload fingerprints differently: %s vs %s", dup.Fingerprint, clean.Fingerprint)
	}
	if !dup.CacheHit {
		t.Error("noisy upload of an identical graph missed the plan cache")
	}

	// The same equality must hold for library callers' raw edge lists.
	ge, err := graph.FromEdgesCanonical(g.N(), func() []graph.Edge {
		var es []graph.Edge
		for _, p := range noisy {
			es = append(es, graph.NewEdge(p[0], p[1]))
		}
		return es
	}())
	if err != nil {
		t.Fatal(err)
	}
	if ge.Fingerprint() != g.Fingerprint() {
		t.Fatalf("FromEdgesCanonical fingerprint %v != clean %v", ge.Fingerprint(), g.Fingerprint())
	}
}

// TestHTTPDeleteAndSweepVersusMutation is the satellite outcome test: a
// session with an ApplyDelta in flight answers DELETE with a typed 409,
// survives the idle-TTL sweep however stale its idle clock, and deletes
// normally (204, then 404) once the mutation completes.
func TestHTTPDeleteAndSweepVersusMutation(t *testing.T) {
	g := testGraph(t)
	var now atomic.Int64
	base := time.Unix(1700000000, 0)
	clock := func() time.Time { return base.Add(time.Duration(now.Load())) }
	srv, ts := testServer(t, Config{
		Registry: RegistryConfig{IdleTTL: time.Minute},
		Now:      clock,
	})
	sess := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	// Pin the mutation hold directly — deterministic stand-in for a PATCH
	// body mid-ApplyDelta (the handler brackets ApplyDelta with exactly
	// this begin/end pair).
	entry, ok := srv.registry.get(sess.SessionID)
	if !ok {
		t.Fatal("session vanished")
	}
	entry.beginMutation()

	var eb ErrorBody
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.SessionID, nil, &eb); code != http.StatusConflict || eb.Error.Code != CodeConflict {
		t.Fatalf("DELETE during mutation: got (%d, %q), want (409, conflict)", code, eb.Error.Code)
	}

	// Idle far past the TTL: the sweep and the lazy per-lookup TTL check
	// must both treat the in-flight mutation as activity.
	now.Store(int64(10 * time.Minute))
	srv.Sweep()
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.SessionID, nil, nil); code != http.StatusOK {
		t.Fatalf("mutating session evicted by the idle sweep: status %d", code)
	}

	// The mutation ends and restamps the idle clock: the session is fresh
	// again, then deletable.
	entry.endMutation(clock())
	srv.Sweep()
	if code := doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.SessionID, nil, nil); code != http.StatusOK {
		t.Fatalf("session evicted right after its mutation finished: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("DELETE after mutation: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.SessionID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double DELETE: status %d", code)
	}
}
