package chaos

// Chaos conformance for live-graph mutation: a session absorbs a scripted
// delta sequence (merge, split, re-merge) under seeded fault schedules
// that fire at the delta boundaries — the ApplyDelta fingerprint-update
// failpoint and the sub-plan admission/merge failpoints — on top of the
// base storm sites. Invariants:
//
//  1. Every delta eventually commits through the retrying client, and each
//     committed fingerprint equals the fault-free run's at that boundary —
//     a failed delta never leaves a half-applied graph behind.
//  2. Exact ledger balance: deltas spend nothing; each boundary query is
//     charged exactly once however many times the storm made it retry.
//  3. Bit-identical survivors: every query that succeeds under faults
//     equals the fault-free run's release at the same boundary, and the
//     post-storm session is bit-identical to the fault-free final state —
//     no torn snapshot.
//  4. The shared plan cache still snapshots and reloads whole.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nodedp/internal/client"
	"nodedp/internal/core"
	"nodedp/internal/fault"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
)

// deltaStep is one scripted mutation.
type deltaStep struct {
	adds, removes [][2]int
}

// deltaScript returns the planted workload graph and a merge → split →
// re-merge mutation sequence over it. Blocks 0-5 and 6-10 are
// edge-disjoint, so {0, 6} is a guaranteed bridge.
func deltaScript() (*graph.Graph, []deltaStep) {
	g := generate.PlantedComponents([]int{6, 5}, 0.5, generate.NewRand(3))
	intra := g.Edges()[0]
	return g, []deltaStep{
		{adds: [][2]int{{0, 6}}, removes: [][2]int{{intra.U, intra.V}}},
		{removes: [][2]int{{0, 6}}},
		{adds: [][2]int{{0, 6}}},
	}
}

// deltaBaselineRun captures the fault-free reference: the fingerprint after
// each committed delta, the released bits of each boundary query, and a
// final-state query.
type deltaBaselineRun struct {
	fingerprints []string
	boundary     []releaseBits
	final        releaseBits
}

const deltaFinalSeed = 99

func deltaBaseline(t *testing.T, g *graph.Graph, edges [][2]int, script []deltaStep) deltaBaselineRun {
	t.Helper()
	if fault.Enabled() {
		t.Fatal("baseline must run with no failpoints armed")
	}
	srv := httpapi.New(httpapi.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{HTTPClient: ts.Client(), JitterSeed: 1})
	ctx := context.Background()

	created, err := cl.CreateSession(ctx, httpapi.CreateSessionRequest{N: g.N(), Edges: edges, Budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	var run deltaBaselineRun
	for bi, step := range script {
		pr, err := cl.Patch(ctx, created.SessionID, httpapi.PatchRequest{Adds: step.adds, Removes: step.removes})
		if err != nil {
			t.Fatalf("baseline delta %d: %v", bi, err)
		}
		run.fingerprints = append(run.fingerprints, pr.Fingerprint)
		res, err := cl.Query(ctx, created.SessionID, httpapi.QueryRequest{
			Op: "cc", Epsilon: chaosEpsilon, Seed: uint64(bi + 1),
		})
		if err != nil {
			t.Fatalf("baseline boundary query %d: %v", bi, err)
		}
		run.boundary = append(run.boundary, releaseBits{
			value: math.Float64bits(res.Value), nHat: math.Float64bits(res.NHat),
		})
	}
	res, err := cl.Query(ctx, created.SessionID, httpapi.QueryRequest{
		Op: "cc", Epsilon: chaosEpsilon, Seed: deltaFinalSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	run.final = releaseBits{value: math.Float64bits(res.Value), nHat: math.Float64bits(res.NHat)}
	return run
}

func TestChaosDeltaSchedules(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	g, script := deltaScript()
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	base := deltaBaseline(t, g, edges, script)
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDeltaSchedule(t, seed, g, edges, script, base)
		})
	}
}

func runDeltaSchedule(t *testing.T, seed uint64, g *graph.Graph, edges [][2]int, script []deltaStep, base deltaBaselineRun) {
	defer fault.Reset()
	ctx := context.Background()

	shared := core.NewPlanCacheWeighted(1 << 30)
	cacheFile := t.TempDir() + "/cache.snap"
	srv := httpapi.New(httpapi.Config{Cache: shared, CacheFile: cacheFile, RetryJitterSeed: seed})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{
		HTTPClient:  ts.Client(),
		MaxAttempts: 6,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		JitterSeed:  seed,
	})

	spec := RandomDeltaSchedule(seed)
	t.Logf("schedule: %s", spec)
	if err := fault.Arm(spec); err != nil {
		t.Fatalf("arming schedule: %v", err)
	}

	var created *httpapi.CreateSessionResponse
	var err error
	for round := 0; round < 10; round++ {
		created, err = cl.CreateSession(ctx, httpapi.CreateSessionRequest{N: g.N(), Edges: edges, Budget: 64})
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("no session under schedule %d: %v", seed, err)
	}

	// The storm: commit every scripted delta and issue its boundary query,
	// retrying past the client's own attempt budget. Set semantics make
	// delta retries harmless (a replayed commit is a no-op with the same
	// fingerprint); request IDs make query retries replay, not respend.
	for bi, step := range script {
		var pr *httpapi.PatchResponse
		for round := 0; round < 20; round++ {
			pr, err = cl.Patch(ctx, created.SessionID, httpapi.PatchRequest{
				Adds: step.adds, Removes: step.removes,
				RequestID: fmt.Sprintf("chaosdelta-%d-mut-%d", seed, bi),
			})
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("delta %d never committed under schedule %d: %v", bi, seed, err)
		}
		if pr.Fingerprint != base.fingerprints[bi] {
			t.Fatalf("delta %d: fingerprint %s under faults != fault-free %s — partial mutation survived",
				bi, pr.Fingerprint, base.fingerprints[bi])
		}

		var res *httpapi.QueryResponse
		for round := 0; round < 20; round++ {
			res, err = cl.Query(ctx, created.SessionID, httpapi.QueryRequest{
				Op: "cc", Epsilon: chaosEpsilon, Seed: uint64(bi + 1),
				RequestID: fmt.Sprintf("chaosdelta-%d-q-%d", seed, bi),
			})
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("boundary query %d never succeeded under schedule %d: %v", bi, seed, err)
		}
		got := releaseBits{value: math.Float64bits(res.Value), nHat: math.Float64bits(res.NHat)}
		if got != base.boundary[bi] {
			t.Errorf("boundary %d: release under faults %x/%x != fault-free %x/%x",
				bi, got.value, got.nHat, base.boundary[bi].value, base.boundary[bi].nHat)
		}
	}
	reservePanics := fault.Fired("privacy.reserve")
	deltaFaults := fault.Fired("serve.delta.fp") + fault.Fired("core.subplan.admit") + fault.Fired("core.subplan.merge")
	t.Logf("delta-boundary faults fired: %d", deltaFaults)
	fault.Reset()

	// The daemon survived and contained every injected ledger panic.
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after storm → %d", code)
	}
	if recovered := metricValue(t, ts.URL, "nodedp_panics_recovered_total"); recovered != int64(reservePanics) {
		t.Errorf("panics recovered = %d, want %d", recovered, reservePanics)
	}

	// Exact ledger balance: one charge per boundary query, nothing for the
	// deltas or their retries.
	info, err := cl.SessionInfo(ctx, created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if want := chaosEpsilon * float64(len(script)); info.Budget.Spent != want {
		t.Errorf("spent = %v, want exactly %v (ε × %d boundary queries; deltas are free)",
			info.Budget.Spent, want, len(script))
	}

	// No torn snapshot: with faults disarmed, the stormed session's final
	// state releases bit-for-bit what the fault-free run released.
	res, err := cl.Query(ctx, created.SessionID, httpapi.QueryRequest{
		Op: "cc", Epsilon: chaosEpsilon, Seed: deltaFinalSeed,
	})
	if err != nil {
		t.Fatalf("final-state query: %v", err)
	}
	final := releaseBits{value: math.Float64bits(res.Value), nHat: math.Float64bits(res.NHat)}
	if final != base.final {
		t.Errorf("final state: %x/%x != fault-free %x/%x — the storm tore the serving snapshot",
			final.value, final.nHat, base.final.value, base.final.nHat)
	}

	// The shared cache — including whatever the delta re-plans inserted —
	// still snapshots cleanly and reloads whole.
	entries, err := srv.SaveCache()
	if err != nil {
		t.Fatalf("clean snapshot save after storm: %v", err)
	}
	warm := core.NewPlanCacheWeighted(1 << 30)
	rep, err := warm.LoadFile(cacheFile)
	if err != nil {
		t.Fatalf("cold start on post-storm snapshot: %v", err)
	}
	if rep.Skipped() != 0 || rep.Loaded != entries {
		t.Fatalf("snapshot degraded: loaded %d of %d, skipped %d (errs: %v)",
			rep.Loaded, entries, rep.Skipped(), rep.Errs)
	}
}

// TestRandomDeltaScheduleExtendsBase pins the compatibility contract: the
// delta schedule is the base schedule plus appended delta-site arms, every
// seed arms serve.delta.fp, and the spec parses.
func TestRandomDeltaScheduleExtendsBase(t *testing.T) {
	defer fault.Reset()
	for _, seed := range chaosSeeds {
		spec := RandomDeltaSchedule(seed)
		if a, b := spec, RandomDeltaSchedule(seed); a != b {
			t.Fatalf("seed %d: delta schedule not deterministic", seed)
		}
		if !strings.HasPrefix(spec, RandomSchedule(seed)) {
			t.Fatalf("seed %d: delta schedule does not extend the base schedule:\n%s", seed, spec)
		}
		if !strings.Contains(spec, "serve.delta.fp=prob:") {
			t.Fatalf("seed %d: delta schedule never arms serve.delta.fp: %s", seed, spec)
		}
		if err := fault.Arm(spec); err != nil {
			t.Fatalf("seed %d: delta schedule does not parse: %v", seed, err)
		}
		fault.Reset()
	}
}
