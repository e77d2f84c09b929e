package httpapi

// Fault-injection and recovery tests for the HTTP layer: panic
// containment, the deadline_exceeded taxonomy mapping, the seeded
// Retry-After jitter, and the delete-vs-query race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nodedp/internal/fault"
)

// TestHTTPPanicContainment: a handler panic (here injected below the
// privacy layer) answers with a typed 500, increments the recovered-panic
// counter, and leaves the daemon fully serviceable.
func TestHTTPPanicContainment(t *testing.T) {
	defer fault.Reset()
	_, ts := testServer(t, Config{})
	g := testGraph(t)
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	if err := fault.Arm("privacy.reserve=nth:1:panic"); err != nil {
		t.Fatal(err)
	}
	var errBody ErrorBody
	code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "cc", Epsilon: 0.5, Seed: 1}, &errBody)
	if code != http.StatusInternalServerError || errBody.Error.Code != CodeInternal {
		t.Fatalf("panicked query → %d %q, want 500 %q", code, errBody.Error.Code, CodeInternal)
	}
	fault.Reset()

	// The daemon survived: the next query succeeds, and the panic fired
	// before the ledger mutation so only the success is charged.
	var qr QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.SessionID+"/query",
		QueryRequest{Op: "cc", Epsilon: 0.5, Seed: 1}, &qr); code != http.StatusOK {
		t.Fatalf("query after recovered panic → %d", code)
	}
	var info SessionInfo
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &info)
	if info.Budget.Spent != 0.5 {
		t.Fatalf("spent = %v, want 0.5 (panicked attempt charged nothing)", info.Budget.Spent)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nodedp_panics_recovered_total 1\n") {
		t.Fatal("metrics missing nodedp_panics_recovered_total 1")
	}
}

// TestHTTPCanceledQueryMaps504: a query whose context is already dead maps
// to 504 deadline_exceeded, spends nothing, and leaves the tenant's cache
// counters untouched.
func TestHTTPCanceledQueryMaps504(t *testing.T) {
	s, ts := testServer(t, Config{})
	g := testGraph(t)
	created := openSession(t, ts.URL, CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	var before SessionInfo
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &before)

	body, _ := json.Marshal(QueryRequest{Op: "cc", Epsilon: 0.5, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/sessions/"+created.SessionID+"/query",
		bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled query → %d, want 504 (body %s)", rec.Code, rec.Body.Bytes())
	}
	var errBody ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("error code %q, want %q", errBody.Error.Code, CodeDeadlineExceeded)
	}

	var after SessionInfo
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.SessionID, nil, &after)
	if after.Budget.Spent != before.Budget.Spent {
		t.Fatalf("canceled query moved the ledger: %v → %v", before.Budget.Spent, after.Budget.Spent)
	}
	if !reflect.DeepEqual(after.Cache, before.Cache) {
		t.Fatalf("canceled query moved cache counters:\n before %+v\n after  %+v", before.Cache, after.Cache)
	}
}

// TestHTTPCanceledUploadMaps504: an upload whose client went away mid-plan
// maps to 504 and releases its registry slot.
func TestHTTPCanceledUploadMaps504(t *testing.T) {
	s, _ := testServer(t, Config{Registry: RegistryConfig{MaxSessions: 1}})
	g := testGraph(t)
	body, _ := json.Marshal(CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("canceled upload → %d, want 504 (body %s)", rec.Code, rec.Body.Bytes())
	}

	// The aborted upload's slot was released: the 1-slot registry accepts
	// a fresh upload.
	req = httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload after aborted upload → %d, want 201 (slot leaked?)", rec.Code)
	}
}

// TestHTTPRetryAfterJitterGolden pins the seeded jitter sequence on shed
// responses: seed 5 must always produce this exact Retry-After schedule,
// and re-creating the server replays it.
func TestHTTPRetryAfterJitterGolden(t *testing.T) {
	want := []string{"3", "2", "1", "1", "1", "2", "1", "2"}
	sequence := func() []string {
		s := New(Config{RetryJitterSeed: 5})
		s.inflight.Add(int64(DefaultMaxInflight))
		defer s.inflight.Add(-int64(DefaultMaxInflight))
		var got []string
		for range want {
			req := httptest.NewRequest("GET", "/v1/sessions/x", nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("held-slot request → %d, want 429", rec.Code)
			}
			got = append(got, rec.Header().Get("Retry-After"))
		}
		return got
	}
	first := sequence()
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Fatalf("jitter sequence %v, want %v", first, want)
	}
	if second := sequence(); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Fatalf("jitter not reproducible: %v vs %v", second, first)
	}
}

// TestHTTPDeleteRaceTypedOutcomes races a session DELETE against in-flight
// queries under -race: every query must finish with a typed outcome (a
// release before the delete landed, or a clean 404 after), the daemon must
// not panic, and the session must be gone afterwards. The ledger-balance
// half of this satellite lives in internal/serve's
// TestQueryStormBalancesLedgerExactly, where the ledger is observable
// after teardown.
func TestHTTPDeleteRaceTypedOutcomes(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		s, _ := testServer(t, Config{})
		g := testGraph(t)
		body, _ := json.Marshal(CreateSessionRequest{N: g.N(), Edges: edgePairs(g), Budget: 1 << 20})
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("upload → %d", rec.Code)
		}
		var created CreateSessionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}

		const workers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 6; i++ {
					q, _ := json.Marshal(QueryRequest{Op: "cc", Epsilon: 0.25, Seed: uint64(w*8 + i + 1)})
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST",
						"/v1/sessions/"+created.SessionID+"/query", bytes.NewReader(q)))
					if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
						t.Errorf("mid-delete query → %d (%s)", rec.Code, rec.Body.Bytes())
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("DELETE", "/v1/sessions/"+created.SessionID, nil))
			if rec.Code != http.StatusNoContent && rec.Code != http.StatusNotFound {
				t.Errorf("delete → %d", rec.Code)
			}
		}()
		close(start)
		wg.Wait()

		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+created.SessionID, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("session survived its delete: %d", rec.Code)
		}
	}
}
