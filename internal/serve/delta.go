package serve

// This file implements live-graph mutation: Session.ApplyDelta edits the
// served graph — edge additions and removals — and re-plans it through the
// component-keyed sub-plan layer of the plan cache, so a delta touching one
// component re-evaluates one component while every untouched component's
// grid values are reused verbatim. The keystone contract is bit-identity:
// the post-delta session releases exactly what a session cold-opened on the
// mutated graph would release — same grid values, same work counters, same
// fingerprint — because both evaluations are the same per-component merge
// in internal/core.
//
// The served graph is a graph.Decomposition, and a delta is a pure
// pipeline over it: canonicalize, classify the edges against the current
// decomposition, Apply (which rebuilds only the touched components and
// shares the rest), hit the serve.delta.fp failpoint, evaluate, commit. No
// step before the commit changes session state, so a failed delta —
// validation error, injected fault, cancelation, evaluation error — leaves
// the old state the state, with nothing to undo. The session's first delta
// decomposes the Open-time CSR once; every later delta costs
// O(touched + #components) on the graph side.
//
// Concurrency: deltas are serialized by a mutation mutex, and the served
// grid evaluation is swapped as one atomic snapshot only after the new
// evaluation fully succeeds. A query racing a delta therefore sees the
// pre-delta or the post-delta graph, never a torn mixture.
//
// Accounting: a delta spends no privacy budget (it changes the database,
// not the released information), but it is a ledger-relevant event: the
// audit stream records one "delta" line with the unchanged balance, under
// the same lock that orders reserve/refund/charge records, so `ccdp audit`
// replay still reconciles every spent value bit-for-bit. The audit scope
// stays pinned to the open-time fingerprint: one session, one contiguous
// stream, even as the served fingerprint advances.

import (
	"context"
	"fmt"
	"slices"

	"nodedp/internal/core"
	"nodedp/internal/fault"
	"nodedp/internal/graph"
	"nodedp/internal/obs"
	"nodedp/internal/unionfind"
)

// DeltaResult reports what one ApplyDelta did.
type DeltaResult struct {
	// Added and Removed count the edges actually inserted and deleted.
	// Deltas have idempotent set semantics: an addition already present
	// and a removal already absent are silent no-ops and do not count.
	Added, Removed int
	// NoOp reports that the delta changed nothing — the fingerprint is
	// unchanged and no re-planning happened.
	NoOp bool
	// Fingerprint is the canonical fingerprint of the post-delta graph.
	Fingerprint graph.Fingerprint
	// PreComponents and Components count connected components before and
	// after the delta.
	PreComponents, Components int
	// MergedGroups counts the union-find merges the applied additions
	// performed over pre-delta components: two components joining into one
	// is 1, three into one is 2. Zero when additions stayed within
	// components.
	MergedGroups int
	// TouchedComponents counts post-delta components containing an
	// endpoint of an applied edge — the components whose sub-plans could
	// not be reused. Splits are visible as Components growing while
	// TouchedComponents stays small.
	TouchedComponents int
	// PlanCacheHit reports the whole post-delta evaluation was already
	// cached (e.g. a delta returning to a previously served graph).
	PlanCacheHit bool
	// SubPlanHits and SubPlanMisses count this delta's own component
	// lookups in the plan cache's sub-plan layer: hits are components
	// reused verbatim, misses are components re-evaluated. They are exact
	// even when other sessions plan through the same cache concurrently;
	// a whole-plan hit reports 0/0, and so does a session without a cache.
	SubPlanHits, SubPlanMisses int64
}

// ApplyDelta mutates the served graph — inserting adds, deleting removes —
// and re-plans it, atomically swapping the serving snapshot on success.
// Inputs are canonicalized like every other edge-list ingress
// (graph.Canonicalize): endpoints normalized, self-loops dropped,
// duplicates collapsed; an edge listed in both adds and removes is
// rejected. The vertex set is fixed at Open — endpoints must be in
// [0, N()).
//
// Semantics are idempotent set operations: adds ensure presence, removes
// ensure absence, and a delta that changes nothing short-circuits without
// re-planning (NoOp). On any error the served graph, the plan, and the
// budget ledger are unchanged; deltas never spend ε. Concurrent queries
// are answered from the pre-delta snapshot until the swap and the
// post-delta snapshot after it. Multiple ApplyDelta calls serialize.
//
// The post-delta session is bit-identical to a cold open of the mutated
// graph under the same options: both merge the same per-component
// evaluations, and with a plan cache the delta re-plans only the touched
// components.
func (s *Session) ApplyDelta(ctx context.Context, adds, removes []graph.Edge) (res DeltaResult, err error) {
	info := obs.RequestInfoFrom(ctx)
	sp, ctx := obs.StartSpan(ctx, "serve.delta")
	defer func() {
		if sp != nil {
			if err != nil {
				sp.SetLabel("outcome", "error")
			} else {
				sp.SetCounter("added", int64(res.Added))
				sp.SetCounter("removed", int64(res.Removed))
				sp.SetCounter("components", int64(res.Components))
				sp.SetCounter("touched_components", int64(res.TouchedComponents))
				sp.SetCounter("subplan_hits", res.SubPlanHits)
			}
			sp.End()
		}
	}()

	s.mutMu.Lock()
	defer s.mutMu.Unlock()

	// fail records a delta that changed nothing: the session state is
	// untouched until the commit below.
	fail := func(outcome string, err error) (DeltaResult, error) {
		s.deltasRejected.Add(1)
		s.auditDelta(info, outcome)
		return DeltaResult{}, err
	}

	// 1. Canonicalize.
	n := s.snap.Load().ge.N()
	cadds, err := graph.Canonicalize(n, adds)
	if err != nil {
		return fail(obs.AuditRejected, fmt.Errorf("serve: delta adds: %w", err))
	}
	cremoves, err := graph.Canonicalize(n, removes)
	if err != nil {
		return fail(obs.AuditRejected, fmt.Errorf("serve: delta removes: %w", err))
	}
	// Both lists are sorted and deduplicated: a two-pointer scan finds any
	// edge requested both ways, which has no coherent set semantics.
	for i, j := 0, 0; i < len(cadds) && j < len(cremoves); {
		switch {
		case cadds[i] == cremoves[j]:
			return fail(obs.AuditRejected, fmt.Errorf("serve: edge %v in both adds and removes", cadds[i]))
		case cadds[i].U < cremoves[j].U || (cadds[i].U == cremoves[j].U && cadds[i].V < cremoves[j].V):
			i++
		default:
			j++
		}
	}

	// 2. Classify against the current decomposition: only additions of
	// absent edges and removals of present ones change the graph.
	if s.decomp == nil {
		s.decomp, s.csr = s.csr.Decompose(), nil
	}
	cur := s.decomp
	var appliedAdds, appliedRemoves []graph.Edge
	for _, e := range cadds {
		if !cur.HasEdge(e.U, e.V) {
			appliedAdds = append(appliedAdds, e)
		}
	}
	for _, e := range cremoves {
		if cur.HasEdge(e.U, e.V) {
			appliedRemoves = append(appliedRemoves, e)
		}
	}
	if len(appliedAdds) == 0 && len(appliedRemoves) == 0 {
		// Idempotent no-op: the graph — and so the fingerprint, the plan,
		// and every future release — is unchanged. Still a committed,
		// audited delta.
		s.deltas.Add(1)
		s.auditDelta(info, obs.AuditOK)
		return DeltaResult{
			NoOp:          true,
			Fingerprint:   cur.Fingerprint(),
			PreComponents: len(cur.Shards()),
			Components:    len(cur.Shards()),
		}, nil
	}

	// 3. Apply: the post-delta decomposition, sharing every untouched
	// component with cur, which stays the served graph until the commit.
	next, err := cur.Apply(appliedAdds, appliedRemoves)
	if err != nil { // unreachable after the classification; belt and braces
		return fail(obs.AuditError, fmt.Errorf("serve: delta: %w", err))
	}

	// 4. Failpoint at the fingerprint-update boundary: the post-delta
	// fingerprint exists but nothing is committed. A firing site must
	// leave the session serving the pre-delta snapshot.
	if err = fault.Hit("serve.delta.fp"); err != nil {
		return fail(obs.AuditError, err)
	}
	if err = ctx.Err(); err != nil {
		return fail(obs.AuditError, err)
	}

	// 5. Evaluate, through the plan cache when the session has one.
	ge, lk, err := s.cache.GridEvalDecomposition(ctx, next, core.Options{ForestLP: s.forestLP})
	if err != nil {
		return fail(obs.AuditError, err)
	}

	// 6. Commit: one atomic swap. In-flight queries holding the old
	// snapshot finish against it; new queries see the post-delta state.
	s.decomp = next
	s.snap.Store(&snapshot{ge: ge, built: !lk.Hit})
	if !lk.Hit {
		s.plansBuilt.Add(1)
	}
	s.deltas.Add(1)
	s.auditDelta(info, obs.AuditOK)
	return DeltaResult{
		Added:             len(appliedAdds),
		Removed:           len(appliedRemoves),
		Fingerprint:       ge.Fingerprint(),
		PreComponents:     len(cur.Shards()),
		Components:        len(next.Shards()),
		MergedGroups:      mergedGroups(cur, appliedAdds),
		TouchedComponents: touchedComponents(next, appliedAdds, appliedRemoves),
		PlanCacheHit:      lk.Hit,
		SubPlanHits:       lk.SubPlanHits,
		SubPlanMisses:     lk.SubPlanMisses,
	}, nil
}

// mergedGroups counts the union-find merges adds perform over the
// components of d, the pre-delta graph.
func mergedGroups(d *graph.Decomposition, adds []graph.Edge) int {
	comps := make([]int, 0, 2*len(adds))
	for _, e := range adds {
		comps = append(comps, d.Component(e.U), d.Component(e.V))
	}
	ids := slices.Clone(comps)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	dsu := unionfind.New(len(ids))
	merged := 0
	for i := 0; i < len(comps); i += 2 {
		a, _ := slices.BinarySearch(ids, comps[i])
		b, _ := slices.BinarySearch(ids, comps[i+1])
		if dsu.Union(a, b) {
			merged++
		}
	}
	return merged
}

// touchedComponents counts the components of d, the post-delta graph,
// that hold an endpoint of an applied edge.
func touchedComponents(d *graph.Decomposition, adds, removes []graph.Edge) int {
	var comps []int
	for _, list := range [][]graph.Edge{adds, removes} {
		for _, e := range list {
			comps = append(comps, d.Component(e.U), d.Component(e.V))
		}
	}
	slices.Sort(comps)
	return len(slices.Compact(comps))
}

// auditDelta records one graph-mutation event with the unchanged ledger
// balance; reconciliation verifies exactly that the balance did not move.
func (s *Session) auditDelta(info obs.RequestInfo, outcome string) {
	if s.audit == nil {
		return
	}
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	s.audit.Record(obs.AuditEvent{
		Tenant:    info.Tenant,
		RequestID: info.RequestID,
		Scope:     s.scope,
		Op:        obs.AuditDelta,
		Outcome:   outcome,
		Mode:      s.acct.Name(),
		Spent:     s.acct.Spent(),
	})
}
