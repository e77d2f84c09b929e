package serve

// This file implements live-graph mutation: Session.ApplyDelta edits the
// served graph in place — edge additions and removals — and re-plans it
// through the component-keyed sub-plan layer of the plan cache, so a delta
// touching one component re-evaluates one component while every untouched
// component's grid values are reused verbatim. The keystone contract is
// bit-identity: the post-delta session releases exactly what a session
// cold-opened on the mutated graph would release — same grid values, same
// work counters, same fingerprint — because both evaluations are the same
// per-component merge in internal/core.
//
// Concurrency: deltas are serialized by a mutation mutex, and the served
// state (grid evaluation + CSR) is swapped as one atomic snapshot only
// after the new evaluation fully succeeds. A query racing a delta
// therefore sees the pre-delta or the post-delta graph, never a torn
// mixture, and a failed delta — validation error, injected fault,
// cancelation, evaluation error — leaves the session exactly as it was.
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
	// SubPlanHits and SubPlanMisses are the component-level cache counters
	// observed across this delta's re-planning: hits are components reused
	// verbatim, misses are components re-evaluated. Best-effort under a
	// plan cache shared with concurrently planning sessions.
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

	cur := s.snap.Load()
	n := cur.csr.N()
	cadds, err := graph.Canonicalize(n, adds)
	if err != nil {
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditRejected)
		return DeltaResult{}, fmt.Errorf("serve: delta adds: %w", err)
	}
	cremoves, err := graph.Canonicalize(n, removes)
	if err != nil {
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditRejected)
		return DeltaResult{}, fmt.Errorf("serve: delta removes: %w", err)
	}
	// Both lists are sorted and deduplicated: a two-pointer scan finds any
	// edge requested both ways, which has no coherent set semantics.
	for i, j := 0, 0; i < len(cadds) && j < len(cremoves); {
		switch {
		case cadds[i] == cremoves[j]:
			s.deltasRejected.Add(1)
			s.auditDelta(info, obs.AuditRejected)
			return DeltaResult{}, fmt.Errorf("serve: edge %v in both adds and removes", cadds[i])
		case cadds[i].U < cremoves[j].U || (cadds[i].U == cremoves[j].U && cadds[i].V < cremoves[j].V):
			i++
		default:
			j++
		}
	}

	// Materialize the mutable twin lazily: sessions that never mutate pay
	// nothing beyond the CSR snapshot they already hold.
	if s.live == nil {
		s.live = cur.csr.Graph()
	}

	var appliedAdds, appliedRemoves []graph.Edge
	for _, e := range cadds {
		inserted, aerr := s.live.EnsureEdge(e.U, e.V)
		if aerr != nil { // unreachable after Canonicalize; belt and braces
			err = aerr
			break
		}
		if inserted {
			appliedAdds = append(appliedAdds, e)
		}
	}
	if err == nil {
		for _, e := range cremoves {
			if s.live.RemoveEdge(e.U, e.V) {
				appliedRemoves = append(appliedRemoves, e)
			}
		}
	}
	// rollback undoes the applied mutations exactly: the fingerprint lane
	// sums are wrapping additions, so re-adding and re-removing restores
	// them bit-for-bit.
	rollback := func() {
		for _, e := range appliedRemoves {
			if aerr := s.live.AddEdge(e.U, e.V); aerr != nil {
				panic(fmt.Sprintf("serve: delta rollback: %v", aerr))
			}
		}
		for _, e := range appliedAdds {
			if !s.live.RemoveEdge(e.U, e.V) {
				panic(fmt.Sprintf("serve: delta rollback: edge %v vanished", e))
			}
		}
	}
	if err != nil {
		rollback()
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditError)
		return DeltaResult{}, fmt.Errorf("serve: delta: %w", err)
	}

	preCount := cur.ge.Stats().Components
	if len(appliedAdds) == 0 && len(appliedRemoves) == 0 {
		// Idempotent no-op: the graph — and so the fingerprint, the plan,
		// and every future release — is unchanged. Still a committed,
		// audited delta.
		s.deltas.Add(1)
		s.auditDelta(info, obs.AuditOK)
		return DeltaResult{
			NoOp:          true,
			Fingerprint:   cur.ge.Fingerprint(),
			PreComponents: preCount,
			Components:    preCount,
		}, nil
	}

	// Failpoint at the fingerprint-update boundary: the live graph has new
	// lane sums but nothing is swapped yet. A firing site must leave the
	// session serving the pre-delta snapshot with the mutation fully
	// rolled back.
	if err = fault.Hit("serve.delta.fp"); err != nil {
		rollback()
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditError)
		return DeltaResult{}, err
	}
	if err = ctx.Err(); err != nil {
		rollback()
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditError)
		return DeltaResult{}, err
	}

	probe := core.Options{
		Beta:                s.beta,
		DeltaMax:            s.deltaMax,
		CountBudgetFraction: s.countFrac,
		DiscreteRelease:     s.discrete,
		ForestLP:            s.forestLP,
	}
	var (
		ge  *core.GridEval
		hit bool
	)
	if s.cache != nil {
		before := s.cache.Stats()
		ge, hit, err = s.cache.GridEval(ctx, s.live, probe)
		if err == nil {
			after := s.cache.Stats()
			res.SubPlanHits = after.SubPlanHits - before.SubPlanHits
			res.SubPlanMisses = after.SubPlanMisses - before.SubPlanMisses
		}
	} else {
		ge, err = core.EvaluateGrid(ctx, s.live, probe)
	}
	if err != nil {
		rollback()
		s.deltasRejected.Add(1)
		s.auditDelta(info, obs.AuditError)
		return DeltaResult{}, err
	}

	// Component bookkeeping: union-find over pre-delta component labels
	// counts the merges the additions performed; post-delta labels locate
	// the touched components. Both passes run on immutable CSR snapshots.
	preLabels, preLabelCount := cur.csr.Components()
	dsu := unionfind.New(preLabelCount)
	merged := 0
	for _, e := range appliedAdds {
		if dsu.Union(preLabels[e.U], preLabels[e.V]) {
			merged++
		}
	}
	newCSR := graph.NewCSR(s.live)
	postLabels, postCount := newCSR.Components()
	touched := make(map[int]struct{}, 2*(len(appliedAdds)+len(appliedRemoves)))
	for _, e := range appliedAdds {
		touched[postLabels[e.U]] = struct{}{}
		touched[postLabels[e.V]] = struct{}{}
	}
	for _, e := range appliedRemoves {
		touched[postLabels[e.U]] = struct{}{}
		touched[postLabels[e.V]] = struct{}{}
	}

	// Commit: one atomic swap. In-flight queries holding the old snapshot
	// finish against it; new queries see the post-delta state.
	s.snap.Store(&snapshot{ge: ge, csr: newCSR, built: !hit})
	if !hit {
		s.plansBuilt.Add(1)
	}
	s.deltas.Add(1)
	s.auditDelta(info, obs.AuditOK)

	res.Added = len(appliedAdds)
	res.Removed = len(appliedRemoves)
	res.Fingerprint = ge.Fingerprint()
	res.PreComponents = preCount
	res.Components = postCount
	res.MergedGroups = merged
	res.TouchedComponents = len(touched)
	res.PlanCacheHit = hit
	return res, nil
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
