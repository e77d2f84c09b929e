package httpapi

// This file defines the wire types of the HTTP/JSON front end: request and
// response bodies for every /v1 route plus the typed error taxonomy. The
// API releases only private values (the release, the GEM-selected Δ̂, and
// the noise scale — all ε-node-private or post-processing thereof); the
// non-private diagnostics that the in-process API exposes for testing
// (FDelta, per-Δ evaluations, exact n) are deliberately absent from the
// wire format, because a network endpoint cannot see who is asking.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"nodedp/internal/serve"
)

// ErrorCode is the machine-readable error taxonomy of the API.
type ErrorCode string

const (
	// CodeInvalidRequest: malformed JSON, unknown fields, bad parameters.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound: no session with the given id (possibly evicted).
	CodeNotFound ErrorCode = "not_found"
	// CodeBudgetExhausted: the session accountant rejected the query; the
	// query spent nothing.
	CodeBudgetExhausted ErrorCode = "budget_exhausted"
	// CodeOverloaded: load shedding (inflight cap) or session-registry
	// capacity; retry after the indicated delay.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeInternal: unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
	// CodeDeadlineExceeded: the query's context was canceled or its
	// deadline passed before the release completed (client disconnect or
	// HTTP timeout). The reserved ε was refunded in full; retrying is
	// budget-safe. HTTP 504.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeConflict: the operation races a conflicting one on the same
	// session — today, DELETE while a PATCH mutation is in flight. The
	// session is unchanged; retry once the mutation completes. HTTP 409.
	CodeConflict ErrorCode = "conflict"
)

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries one typed error.
type ErrorInfo struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// CreateSessionRequest is the body of POST /v1/graphs: upload a graph and
// open a named serving session over it. Exactly one of Edges or EdgeList
// must be provided (EdgeList is the package's text exchange format, for
// clients that already store graphs that way).
type CreateSessionRequest struct {
	// Tenant scopes the session for the per-tenant registry cap; empty
	// means the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// N is the vertex count (vertices are 0..N-1). Required with Edges;
	// ignored with EdgeList (the header carries it).
	N int `json:"n,omitempty"`
	// Edges lists the undirected edges as [u, v] pairs.
	//privacy:secret — the raw edge list of the uploaded graph; inbound only, must never be echoed on a response.
	Edges [][2]int `json:"edges,omitempty"`
	// EdgeList is the text exchange format ("n <count>" header plus one
	// "u v" pair per line), mutually exclusive with Edges.
	//privacy:secret — the raw edge list of the uploaded graph; inbound only, must never be echoed on a response.
	EdgeList string `json:"edge_list,omitempty"`
	// Budget is ε_total for the session's accountant. Required.
	Budget float64 `json:"budget"`
	// Accountant selects the composition rule: "sequential" (default) or
	// "advanced" (Delta then required).
	Accountant string `json:"accountant,omitempty"`
	// Delta is the advanced-composition failure probability δ.
	Delta float64 `json:"delta,omitempty"`
	// Workers / SepWorkers / SepWaveWidth tune the one-time plan build
	// (0 = defaults): Workers spreads its components across a pool,
	// SepWorkers one component's separation. They never change the
	// released values.
	Workers      int `json:"workers,omitempty"`
	SepWorkers   int `json:"sep_workers,omitempty"`
	SepWaveWidth int `json:"sep_wave_width,omitempty"`
	// DiscreteRelease selects the exact integer release mechanism.
	DiscreteRelease bool `json:"discrete_release,omitempty"`
	// RequestID, when non-empty, names the upload for tracing and privacy
	// auditing (the session-open audit record and the upload's trace are
	// keyed by it). Uploads are not idempotent: retrying with the same ID
	// opens a second session.
	RequestID string `json:"request_id,omitempty"`
}

// CreateSessionResponse answers POST /v1/graphs.
type CreateSessionResponse struct {
	SessionID string `json:"session_id"`
	// Fingerprint is the canonical 128-bit digest of the uploaded graph.
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports whether the plan was served from the plan cache —
	// scoped to the uploading tenant's own cache, so it can only reveal
	// that THIS tenant uploaded an identical graph before (a cache shared
	// across tenants would be an equality oracle on other tenants'
	// sensitive graphs).
	CacheHit bool `json:"cache_hit"`
	// Accountant and Budget echo the session's composition configuration.
	Accountant string  `json:"accountant"`
	Budget     float64 `json:"budget"`
	Delta      float64 `json:"delta,omitempty"`
}

// PatchRequest is the body of PATCH /v1/graphs/{id}: a live-graph delta
// against the session's served graph. Deltas have idempotent set
// semantics — adds ensure presence, removes ensure absence — and both
// lists are canonicalized exactly like an upload body (endpoints
// normalized, self-loops dropped, duplicates collapsed), so semantically
// identical deltas always produce fingerprint-identical graphs. An edge
// listed in both adds and removes is rejected. The vertex set is fixed at
// upload; endpoints must be in [0, n).
//
// PATCH is deliberately NOT request-ID deduplicated: the set semantics
// already make a retry of a committed delta a harmless no-op (it reports
// zero applied edges), and a delta spends no privacy budget, so there is
// no double-charge to guard against. RequestID still names the mutation
// for tracing and for the audit ledger's "delta" records.
type PatchRequest struct {
	// Adds lists edges to insert as [u, v] pairs.
	//privacy:secret — raw edges of the sensitive graph; inbound only, must never be echoed on a response.
	Adds [][2]int `json:"adds,omitempty"`
	// Removes lists edges to delete as [u, v] pairs.
	//privacy:secret — raw edges of the sensitive graph; inbound only, must never be echoed on a response.
	Removes [][2]int `json:"removes,omitempty"`
	// RequestID names the mutation for tracing and privacy auditing.
	RequestID string `json:"request_id,omitempty"`
}

// PatchResponse answers PATCH /v1/graphs/{id}. It deliberately excludes
// the exact component counts the in-process DeltaResult exposes: the
// number of connected components is the very quantity this system
// releases privately, so it never travels the wire un-noised. What is
// exposed mirrors the existing upload surface — the canonical fingerprint
// (CreateSessionResponse exposes it too) and tenant-scoped plan-cache
// behavior (SessionInfo already exposes the same counters).
type PatchResponse struct {
	// Added and Removed count the edges actually inserted and deleted;
	// an add already present or a remove already absent counts zero.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// NoOp reports that the delta changed nothing: the fingerprint, the
	// plan, and every future release are unchanged.
	NoOp bool `json:"no_op,omitempty"`
	// Fingerprint is the canonical 128-bit digest of the post-delta graph
	// (the digest a fresh upload of the mutated graph would report).
	Fingerprint string `json:"fingerprint"`
	// PlanCacheHit reports the whole post-delta evaluation was already
	// cached — e.g. a delta returning to a previously served graph.
	// Tenant-scoped, like CreateSessionResponse.CacheHit.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// SubPlanHits and SubPlanMisses count component sub-plans reused
	// verbatim vs re-evaluated by this delta's re-planning — the
	// observable half of component-local plan reuse.
	SubPlanHits   int64 `json:"subplan_hits"`
	SubPlanMisses int64 `json:"subplan_misses"`
}

// QueryRequest is the body of POST /v1/sessions/{id}/query and one element
// of a batch. Op uses the CLI's mode names: "cc", "cc-known-n", "sf".
type QueryRequest struct {
	Op      string  `json:"op"`
	Epsilon float64 `json:"epsilon"`
	// Seed, when nonzero, makes the release reproducible (testing only —
	// reproducible releases are not private) and bit-identical to the
	// equivalent in-process Session query with the same seed.
	Seed uint64 `json:"seed,omitempty"`
	// RequestID, when non-empty, makes the query idempotent on the single
	// query endpoint: the first attempt with a given ID executes and its
	// release is recorded; any retry with the same ID replays the recorded
	// response without charging the budget again. Retrying clients (see
	// internal/client) rely on this to survive a connection lost after
	// the budget was charged but before the response arrived. Ignored on
	// the batch endpoint.
	RequestID string `json:"request_id,omitempty"`
}

// QueryResponse is one private release.
type QueryResponse struct {
	// Value is the ε-node-private estimate.
	Value float64 `json:"value"`
	// DeltaHat is the Lipschitz parameter selected by the Generalized
	// Exponential Mechanism (itself a private release).
	DeltaHat float64 `json:"delta_hat"`
	// NoiseScale is the Laplace scale of the release step (post-processing
	// of DeltaHat and the public ε).
	NoiseScale float64 `json:"noise_scale"`
	// NHat is the private vertex-count estimate (op "cc" only; for
	// "cc-known-n" it echoes the public count).
	NHat float64 `json:"n_hat,omitempty"`
	// Epsilon echoes the query budget this release spent.
	Epsilon float64 `json:"epsilon"`
	Op      string  `json:"op"`
}

// BatchRequest is the body of POST /v1/sessions/{id}/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
	// RequestID, when non-empty, names the batch for tracing and privacy
	// auditing: the trace's identity derives from it, and audit records
	// attribute item i as "<RequestID>#<i>". It does NOT make the batch
	// idempotent (only the single-query endpoint replays).
	RequestID string `json:"request_id,omitempty"`
}

// BatchItem is one outcome of a batch: exactly one of Result or Error is
// set, at the index of the corresponding query.
type BatchItem struct {
	Result *QueryResponse `json:"result,omitempty"`
	Error  *ErrorInfo     `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/sessions/{id}/batch.
type BatchResponse struct {
	Responses []BatchItem `json:"responses"`
}

// BudgetInfo describes a session accountant's state.
type BudgetInfo struct {
	Total      float64 `json:"total"`
	Spent      float64 `json:"spent"`
	Remaining  float64 `json:"remaining"`
	Accountant string  `json:"accountant"`
	Delta      float64 `json:"delta,omitempty"`
}

// SessionInfo answers GET /v1/sessions/{id}: budget and serving
// introspection for one session.
type SessionInfo struct {
	SessionID   string     `json:"session_id"`
	Tenant      string     `json:"tenant,omitempty"`
	Fingerprint string     `json:"fingerprint"`
	Budget      BudgetInfo `json:"budget"`
	// Queries/Admitted/Rejected are the session's admission counters;
	// PlansBuilt and CacheHit describe the one-time plan construction.
	Queries    int64 `json:"queries"`
	Admitted   int64 `json:"admitted"`
	Rejected   int64 `json:"rejected"`
	PlansBuilt int   `json:"plans_built"`
	CacheHit   bool  `json:"cache_hit"`
	// Deltas and DeltasRejected count committed and refused PATCH
	// mutations on this session (deltas never spend ε).
	Deltas         int64 `json:"deltas,omitempty"`
	DeltasRejected int64 `json:"deltas_rejected,omitempty"`
	// CreatedUnix and IdleSeconds support capacity planning against the
	// registry's idle TTL.
	CreatedUnix int64   `json:"created_unix"`
	IdleSeconds float64 `json:"idle_seconds"`
	// Cache is a snapshot of the session's tenant-scoped plan cache
	// (hit/coalesce/weight counters), the introspection the ROADMAP's
	// serving follow-on asks for. Other tenants' cache state is never
	// visible here.
	Cache CacheInfo `json:"cache"`
}

// CacheInfo mirrors core.CacheStats on the wire.
type CacheInfo struct {
	Hits           int64   `json:"hits"`
	Misses         int64   `json:"misses"`
	Coalesced      int64   `json:"coalesced"`
	Evictions      int64   `json:"evictions"`
	Invalidations  int64   `json:"invalidations"`
	Entries        int     `json:"entries"`
	Weight         int64   `json:"weight"`
	WeightCapacity int64   `json:"weight_capacity,omitempty"`
	EntryWeights   []int64 `json:"entry_weights,omitempty"`
	// SubPlan* mirror the component-keyed sub-plan layer: hits are
	// components whose grid values were reused verbatim during a delta
	// re-plan (or an assembly-backed cold open), misses were evaluated.
	SubPlanHits      int64 `json:"subplan_hits,omitempty"`
	SubPlanMisses    int64 `json:"subplan_misses,omitempty"`
	SubPlanEvictions int64 `json:"subplan_evictions,omitempty"`
	SubPlanEntries   int   `json:"subplan_entries,omitempty"`
	// Snapshot* mirror the persistence counters: save/load passes and the
	// entries they wrote, merged in, and skipped (corrupt, unknown
	// version, or invariant-violating).
	SnapshotSaves          int64 `json:"snapshot_saves,omitempty"`
	SnapshotLoads          int64 `json:"snapshot_loads,omitempty"`
	SnapshotEntriesSaved   int64 `json:"snapshot_entries_saved,omitempty"`
	SnapshotEntriesLoaded  int64 `json:"snapshot_entries_loaded,omitempty"`
	SnapshotEntriesSkipped int64 `json:"snapshot_entries_skipped,omitempty"`
}

// ReplayedHeader marks a single-query response served from the idempotency
// table: the budget was charged exactly once, on the original attempt.
const ReplayedHeader = "Nodedp-Replayed"

// SpanItem is one span of a trace on the wire. Counters and labels carry
// only work attribution (pivot counts, cache hits, stage names) — span
// attributes never hold graph data or raw releases, a contract detlint's
// wireleak analyzer enforces at the Span.SetAny sink.
type SpanItem struct {
	ID       string `json:"id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// DurationSeconds is operational wall-clock timing; it never feeds a
	// released value and is excluded from determinism comparisons.
	DurationSeconds float64           `json:"duration_seconds"`
	Counters        map[string]int64  `json:"counters,omitempty"`
	Labels          map[string]string `json:"labels,omitempty"`
}

// TraceItem is one finished request trace on the wire.
type TraceItem struct {
	TraceID   string     `json:"trace_id"`
	Name      string     `json:"name"`
	Tenant    string     `json:"tenant,omitempty"`
	RequestID string     `json:"request_id,omitempty"`
	Spans     []SpanItem `json:"spans"`
}

// TracesResponse answers GET /v1/admin/traces: the most recent finished
// traces of the requesting tenant, newest first.
type TracesResponse struct {
	Traces []TraceItem `json:"traces"`
}

// SaveCacheResponse answers POST /v1/admin/cache/save. The server-side
// snapshot path is deliberately not echoed: until tenants are
// authenticated, any client can reach the admin route, and filesystem
// layout is nothing a network caller needs.
type SaveCacheResponse struct {
	// Entries is how many cached plans were written to the snapshot.
	Entries int `json:"entries"`
}

// parseOp maps a wire op to the serving layer's (Op, Mode) pair.
func parseOp(op string) (serve.Op, serve.Mode, error) {
	switch op {
	case "cc":
		return serve.OpComponentCount, serve.PrivateN, nil
	case "cc-known-n":
		return serve.OpComponentCount, serve.KnownN, nil
	case "sf":
		return serve.OpSpanningForestSize, serve.PrivateN, nil
	default:
		return 0, 0, fmt.Errorf("unknown op %q (want cc, cc-known-n or sf)", op)
	}
}

// decodeStrict decodes one JSON body rejecting unknown fields and trailing
// garbage — a query with a misspelled field must fail loudly, not silently
// run with defaults (and silently spend budget).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// sanitizeTenant rejects tenants that would break logs or metrics labels.
func sanitizeTenant(t string) error {
	if len(t) > 128 {
		return fmt.Errorf("tenant name longer than 128 bytes")
	}
	if strings.ContainsAny(t, "\n\r\"\\") {
		return fmt.Errorf("tenant name contains forbidden characters")
	}
	return nil
}
