package main

// This file holds the correctness checks: the in-process reference every
// seeded HTTP release must equal bit for bit, and the checks on each reply
// of the timed operations.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"nodedp/internal/core"
	"nodedp/internal/forestlp"
	"nodedp/internal/graph"
	"nodedp/internal/httpapi"
	"nodedp/internal/serve"
)

// openReference opens an in-process session on g with the options the
// daemon gives an upload: the same budget and a per-tenant-sized plan cache.
func openReference(ctx context.Context, g *graph.Graph) (*serve.Session, error) {
	sess, err := serve.Open(ctx, g, serve.SessionOptions{
		TotalBudget: budget,
		Cache:       core.NewPlanCacheWeighted(httpapi.DefaultCacheWeight),
	})
	if err != nil {
		return nil, fmt.Errorf("in-process reference open: %w", err)
	}
	return sess, nil
}

// release runs one query request on an in-process session.
func release(ctx context.Context, sess *serve.Session, req httpapi.QueryRequest) (core.Result, error) {
	q := serve.QueryOptions{Epsilon: req.Epsilon, Seed: req.Seed}
	switch req.Op {
	case "sf":
		return sess.SpanningForestSize(ctx, q)
	case "cc-known-n":
		q.Mode = serve.KnownN
	}
	return sess.ComponentCount(ctx, q)
}

// probe is one seeded query and the reply the in-process reference gives.
type probe struct {
	body []byte
	want httpapi.QueryResponse
}

func newProbe(ctx context.Context, sess *serve.Session, req httpapi.QueryRequest) (probe, error) {
	res, err := release(ctx, sess, req)
	if err != nil {
		return probe{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return probe{}, err
	}
	return probe{body: body, want: httpapi.QueryResponse{
		Value: res.Value, DeltaHat: res.Delta, NoiseScale: res.NoiseScale, NHat: res.NHat,
		Epsilon: req.Epsilon, Op: req.Op,
	}}, nil
}

// probes are the seeded queries sent before the timed window, one per op.
func probes(ctx context.Context, sess *serve.Session, seed uint64) ([]probe, error) {
	out := make([]probe, len(queryOps))
	for j, op := range queryOps {
		var err error
		out[j], err = newProbe(ctx, sess, httpapi.QueryRequest{
			Op: op, Epsilon: probeEps, Seed: seed*uint64(len(queryOps)) + uint64(j) + 1, RequestID: "probe-" + op,
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// queryFinal is live-mutate's seeded release after the window.
func queryFinal(seed uint64) httpapi.QueryRequest {
	return httpapi.QueryRequest{Op: "cc", Epsilon: probeEps, Seed: seed*uint64(len(queryOps)) + uint64(len(queryOps)) + 1, RequestID: "final"}
}

// check sends the probe and compares the reply with the reference bit for bit.
func (p probe) check(c *client, path string) error {
	status, raw, err := c.do("POST", path, p.body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("seeded probe: status %d: %s", status, raw)
	}
	var got httpapi.QueryResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("seeded probe: %w", err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Op != p.want.Op || !same(got.Value, p.want.Value) || !same(got.DeltaHat, p.want.DeltaHat) ||
		!same(got.NoiseScale, p.want.NoiseScale) || !same(got.NHat, p.want.NHat) || !same(got.Epsilon, p.want.Epsilon) {
		return fmt.Errorf("seeded HTTP release %+v differs from the in-process release %+v", got, p.want)
	}
	return nil
}

// checkCreated checks an upload reply — 201, planned cold, mix2k's
// fingerprint — and returns the new session's ID.
func checkCreated(status int, raw []byte, fingerprint string) (string, error) {
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload: status %d: %s", status, raw)
	}
	var cr httpapi.CreateSessionResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if cr.CacheHit || cr.Fingerprint != fingerprint {
		return "", fmt.Errorf("upload: cache_hit=%t fingerprint %s, want a cold plan of %s", cr.CacheHit, cr.Fingerprint, fingerprint)
	}
	return cr.SessionID, nil
}

// checkQuery checks an unseeded release reply.
func checkQuery(status int, raw []byte, op string) error {
	if status != http.StatusOK {
		return fmt.Errorf("query: status %d: %s", status, raw)
	}
	var qr httpapi.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if qr.Op != op || qr.Epsilon != queryEps || !(qr.NoiseScale > 0) || math.IsNaN(qr.Value) || math.IsInf(qr.Value, 0) {
		return fmt.Errorf("query: implausible release %+v for op %s", qr, op)
	}
	return nil
}

// checkPatch checks the reply to delta k: one edge added, the previous
// bridge removed, one sub-plan miss, every other non-trivial component a
// sub-plan hit, and the fingerprint of mix2k plus bridge k.
func checkPatch(status int, raw []byte, k int, fingerprint string, wantHits int64) error {
	if status != http.StatusOK {
		return fmt.Errorf("delta %d: status %d: %s", k, status, raw)
	}
	var pr httpapi.PatchResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return fmt.Errorf("delta %d: %w", k, err)
	}
	wantRemoved := min(k, 1)
	if pr.Added != 1 || pr.Removed != wantRemoved || pr.NoOp || pr.PlanCacheHit ||
		pr.SubPlanMisses != 1 || pr.SubPlanHits != wantHits || pr.Fingerprint != fingerprint {
		return fmt.Errorf("delta %d: got %+v, want 1 added, %d removed, 1 sub-plan miss, %d hits, fingerprint %s",
			k, pr, wantRemoved, wantHits, fingerprint)
	}
	return nil
}

// planCounts is the planner work of one cold open of mix2k: the engine
// counters every forestlp.grid span of the daemon's trace carries, summed
// over components.
type planCounts struct {
	LPSolves             int64 `json:"lp_solves"`
	SimplexPivots        int64 `json:"simplex_pivots"`
	MaxFlowCalls         int64 `json:"max_flow_calls"`
	CutsAdded            int64 `json:"cuts_added"`
	FastPathHits         int64 `json:"fast_path_hits"`
	WarmCutsReused       int64 `json:"warm_cuts_reused"`
	WarmBasisHits        int64 `json:"warm_basis_hits"`
	ParametricSlides     int64 `json:"parametric_slides"`
	IncrementalFallbacks int64 `json:"incremental_fallbacks"`
}

func countsOf(s forestlp.Stats) planCounts {
	return planCounts{
		LPSolves: int64(s.LPSolves), SimplexPivots: int64(s.SimplexPivots), MaxFlowCalls: int64(s.MaxFlowCalls),
		CutsAdded: int64(s.CutsAdded), FastPathHits: int64(s.FastPathHits), WarmCutsReused: int64(s.WarmCutsReused),
		WarmBasisHits: int64(s.WarmBasisHits), ParametricSlides: int64(s.ParametricSlides),
		IncrementalFallbacks: int64(s.IncrementalFallbacks),
	}
}

// daemonPlanCounts reads the daemon's trace of the setup upload from its
// trace ring and sums the engine counters of its forestlp.grid spans.
func daemonPlanCounts(c *client, tenant string) (planCounts, error) {
	status, raw, err := c.do("GET", "/v1/admin/traces?tenant="+tenant+"&limit=128", nil)
	if err != nil {
		return planCounts{}, err
	}
	if status != http.StatusOK {
		return planCounts{}, fmt.Errorf("traces: status %d: %s", status, raw)
	}
	var tr httpapi.TracesResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		return planCounts{}, fmt.Errorf("traces: %w", err)
	}
	for _, t := range tr.Traces {
		if t.RequestID != setupRequestID {
			continue
		}
		var pc planCounts
		for _, s := range t.Spans {
			if s.Name != "forestlp.grid" {
				continue
			}
			pc.LPSolves += s.Counters["lp_solves_total"]
			pc.SimplexPivots += s.Counters["simplex_pivots"]
			pc.MaxFlowCalls += s.Counters["max_flow_calls"]
			pc.CutsAdded += s.Counters["cuts_added"]
			pc.FastPathHits += s.Counters["fast_path_hits"]
			pc.WarmCutsReused += s.Counters["warm_cuts_reused"]
			pc.WarmBasisHits += s.Counters["warm_basis_hits"]
			pc.ParametricSlides += s.Counters["parametric_slides"]
			pc.IncrementalFallbacks += s.Counters["incremental_fallbacks"]
		}
		return pc, nil
	}
	return planCounts{}, fmt.Errorf("the daemon's trace ring holds no trace of the setup upload")
}
