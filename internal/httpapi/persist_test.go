package httpapi

// Tests for plan-cache persistence over the HTTP surface: the admin save
// endpoint, warm restarts (a second server booted from the snapshot serves
// the first server's plans bit-identically), and the snapshot counters in
// /metrics and session introspection.

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/snapshot"
)

// TestHTTPWarmRestartBitIdentity is the daemon-restart half of the
// conformance suite at the HTTP layer: upload → seeded query → admin save,
// then a fresh server whose cache was loaded from the snapshot must (a)
// serve the re-upload as a plan-cache hit and (b) release bit-identical
// values for the same seeded queries.
func TestHTTPWarmRestartBitIdentity(t *testing.T) {
	g := testGraph(t)
	snap := filepath.Join(t.TempDir(), "plans.snap")

	cache1 := core.NewPlanCacheWeighted(1 << 30)
	_, ts1 := testServer(t, Config{Cache: cache1, CacheFile: snap})
	created1 := openSession(t, ts1.URL, CreateSessionRequest{
		N: g.N(), Edges: edgePairs(g), Budget: 10,
	})
	if created1.CacheHit {
		t.Fatal("first upload reported a cache hit")
	}

	queries := []QueryRequest{
		{Op: "cc", Epsilon: 0.5, Seed: 7},
		{Op: "sf", Epsilon: 0.25, Seed: 8},
		{Op: "cc-known-n", Epsilon: 0.5, Seed: 9},
	}
	var before []QueryResponse
	for _, q := range queries {
		var out QueryResponse
		if code := doJSON(t, "POST", ts1.URL+"/v1/sessions/"+created1.SessionID+"/query", q, &out); code != http.StatusOK {
			t.Fatalf("pre-restart query %+v: status %d", q, code)
		}
		before = append(before, out)
	}

	var saved SaveCacheResponse
	if code := doJSON(t, "POST", ts1.URL+"/v1/admin/cache/save", nil, &saved); code != http.StatusOK {
		t.Fatalf("admin save: status %d", code)
	}
	if saved.Entries != 1 {
		t.Fatalf("admin save response %+v, want 1 entry", saved)
	}

	// "Restart": a fresh cache loaded from the snapshot backs a new server.
	cache2 := core.NewPlanCacheWeighted(1 << 30)
	rep, err := cache2.LoadFile(snap)
	if err != nil || rep.Loaded != 1 || rep.Skipped() != 0 {
		t.Fatalf("reloading snapshot: %+v, %v", rep, err)
	}
	_, ts2 := testServer(t, Config{Cache: cache2, CacheFile: snap})

	created2 := openSession(t, ts2.URL, CreateSessionRequest{
		N: g.N(), Edges: edgePairs(g), Budget: 10,
	})
	if !created2.CacheHit {
		t.Fatal("post-restart upload of the same graph was not a plan-cache hit — the restart replanned")
	}
	if created2.Fingerprint != created1.Fingerprint {
		t.Fatalf("fingerprint changed across restart: %s vs %s", created1.Fingerprint, created2.Fingerprint)
	}

	for i, q := range queries {
		var out QueryResponse
		if code := doJSON(t, "POST", ts2.URL+"/v1/sessions/"+created2.SessionID+"/query", q, &out); code != http.StatusOK {
			t.Fatalf("post-restart query %+v: status %d", q, code)
		}
		if math.Float64bits(out.Value) != math.Float64bits(before[i].Value) ||
			math.Float64bits(out.DeltaHat) != math.Float64bits(before[i].DeltaHat) ||
			math.Float64bits(out.NoiseScale) != math.Float64bits(before[i].NoiseScale) ||
			math.Float64bits(out.NHat) != math.Float64bits(before[i].NHat) {
			t.Fatalf("seeded release differs across restart (query %d):\nbefore %+v\nafter  %+v", i, before[i], out)
		}
	}

	// Session introspection on the restarted server exposes the load.
	var info SessionInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/sessions/"+created2.SessionID, nil, &info); code != http.StatusOK {
		t.Fatalf("session info: status %d", code)
	}
	if info.Cache.SnapshotLoads != 1 || info.Cache.SnapshotEntriesLoaded != 1 {
		t.Fatalf("session cache info missing snapshot counters: %+v", info.Cache)
	}
}

// TestHTTPAdminCacheSaveNotConfigured: without a shared cache + snapshot
// path the endpoint refuses with the typed invalid_request error instead
// of pretending to persist.
func TestHTTPAdminCacheSaveNotConfigured(t *testing.T) {
	cases := map[string]Config{
		"per-tenant mode":   {},
		"cache but no file": {Cache: core.NewPlanCacheWeighted(1 << 20)},
	}
	for name, cfg := range cases {
		_, ts := testServer(t, cfg)
		var eb ErrorBody
		if code := doJSON(t, "POST", ts.URL+"/v1/admin/cache/save", nil, &eb); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
		if eb.Error.Code != CodeInvalidRequest {
			t.Fatalf("%s: error code %q, want %q", name, eb.Error.Code, CodeInvalidRequest)
		}
	}
}

// TestHTTPAdminCacheSaveFailure: an unwritable snapshot path surfaces as a
// typed internal error (the daemon's boot-time probe normally prevents
// this; the endpoint must still not lie about having saved).
func TestHTTPAdminCacheSaveFailure(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "plans.snap")
	_, ts := testServer(t, Config{Cache: core.NewPlanCacheWeighted(1 << 20), CacheFile: bad})
	var eb ErrorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/admin/cache/save", nil, &eb); code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if eb.Error.Code != CodeInternal {
		t.Fatalf("error code %q, want %q", eb.Error.Code, CodeInternal)
	}
}

// TestHTTPMetricsSnapshotCounters: saves and loads show up in the
// Prometheus exposition so warm-restart behavior is observable.
func TestHTTPMetricsSnapshotCounters(t *testing.T) {
	g := testGraph(t)
	snap := filepath.Join(t.TempDir(), "plans.snap")
	cache := core.NewPlanCacheWeighted(1 << 30)
	_, ts := testServer(t, Config{Cache: cache, CacheFile: snap})

	openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})
	if code := doJSON(t, "POST", ts.URL+"/v1/admin/cache/save", nil, nil); code != http.StatusOK {
		t.Fatalf("admin save: status %d", code)
	}
	if _, err := cache.LoadFile(snap); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"nodedp_plan_cache_snapshot_saves_total 1",
		"nodedp_plan_cache_snapshot_entries_saved_total 1",
		"nodedp_plan_cache_snapshot_loads_total 1",
		"nodedp_plan_cache_snapshot_entries_loaded_total 0", // duplicate: live entry kept
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHTTPMetricsEngineStalledPieces: a cached plan whose engine stats
// record stalled LP pieces shows them in /metrics, so an operator sees
// that some cached values are relaxation bounds rather than converged
// optima.
func TestHTTPMetricsEngineStalledPieces(t *testing.T) {
	live := core.NewPlanCacheWeighted(1 << 30)
	if _, _, err := live.GridEval(context.Background(), testGraph(t), core.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := live.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, _, err := snapshot.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap.Entries[0].Stats.StalledPieces = 2
	buf.Reset()
	if err := snapshot.Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	cache := core.NewPlanCacheWeighted(1 << 30)
	if rep, err := cache.Load(&buf); err != nil || rep.Loaded != 1 {
		t.Fatalf("load: %+v, %v", rep, err)
	}
	_, ts := testServer(t, Config{Cache: cache})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "nodedp_engine_stalled_pieces 2\n"; !strings.Contains(string(raw), want) {
		t.Fatalf("/metrics missing %q:\n%s", want, raw)
	}
}
