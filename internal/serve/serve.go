// Package serve implements the session-oriented serving layer over
// Algorithm 1: a long-lived Session snapshots a sensitive graph once — CSR,
// shard plan, and the full Δ-grid of Lipschitz-extension evaluations, via
// internal/core's grid evaluation and optionally a fingerprint-keyed
// PlanCache — and then answers many private queries against it, each
// debiting a thread-safe sequential-composition budget accountant.
//
// The split mirrors the structure of the mechanism itself: the grid
// evaluation is deterministic and data-dependent but not released, so it
// may be computed once and shared; every query pays only GEM selection plus
// Laplace noise (microseconds) and its own ε against a pluggable
// composition accountant (internal/privacy) — sequential composition
// (Lemma 2.4) by default, or (ε, δ) advanced composition, which admits many
// more small queries at equal ε_total. A query that would overdraw the
// session budget fails with ErrBudgetExhausted before any noise is drawn,
// spending nothing.
//
// Determinism contract: a query with an explicit Seed releases bit-for-bit
// the value the equivalent one-shot nodedp.Estimate*Ctx call with
// Rand = NewRand(seed) would have released on the same graph and options —
// enforced by routing both through the same core release path — and a batch
// served by Do equals the same queries issued sequentially.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"nodedp/internal/core"
	"nodedp/internal/dpnoise"
	"nodedp/internal/forestlp"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/obs"
	"nodedp/internal/privacy"
)

// ErrBudgetExhausted is returned (wrapped, with the requested and remaining
// budgets) by queries that would overdraw the session's total privacy
// budget. The failing query spends nothing; test with
// errors.Is(err, ErrBudgetExhausted).
var ErrBudgetExhausted = privacy.ErrBudgetExhausted

// Mode selects how a component-count query treats the vertex count.
type Mode int

const (
	// PrivateN (the default) buys a private vertex count out of the query's
	// ε, as EstimateComponentCount does.
	PrivateN Mode = iota
	// KnownN treats the vertex count as public and spends the whole query ε
	// on the spanning-forest estimate, as EstimateComponentCountKnownN does.
	KnownN
)

func (m Mode) String() string {
	switch m {
	case PrivateN:
		return "private-n"
	case KnownN:
		return "known-n"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Op selects what a batch request estimates.
type Op int

const (
	// OpComponentCount estimates f_cc (honoring the request Mode).
	OpComponentCount Op = iota
	// OpSpanningForestSize estimates f_sf.
	OpSpanningForestSize
)

func (o Op) String() string {
	switch o {
	case OpComponentCount:
		return "cc"
	case OpSpanningForestSize:
		return "sf"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// SessionOptions configures Open. TotalBudget is required; everything else
// defaults exactly as the one-shot estimators do (crypto noise), and the
// paper's constants are fixed there too (β = 1/ln ln n, Δmax = n, count
// share 0.2).
type SessionOptions struct {
	// TotalBudget is ε_total, the hard cap on the session's global privacy
	// loss as measured by the selected composition accountant. Required
	// unless Accountant is set.
	TotalBudget float64
	// Composition selects the budget accountant: privacy.Sequential (the
	// zero value — pure-ε sequential composition, Lemma 2.4) or
	// privacy.Advanced ((ε, δ) advanced composition, which admits many more
	// small queries at the same ε_total; Delta is then required).
	Composition privacy.Composition
	// Delta is the failure probability δ of the advanced-composition
	// accountant; required in (0, 1) when Composition is privacy.Advanced
	// and must be zero otherwise.
	Delta float64
	// Accountant, when non-nil, is used directly and TotalBudget,
	// Composition, and Delta must be zero: the caller owns the composition
	// rule (and may share one ledger across several sessions over the same
	// sensitive graph).
	Accountant privacy.Accountant
	// DiscreteRelease and ForestLP carry the same meaning (and defaults)
	// as the corresponding core.Options fields and apply to every query of
	// the session.
	DiscreteRelease bool
	ForestLP        forestlp.Options
	// Rand is the noise source for queries without an explicit Seed. If
	// nil, each unseeded query draws from a fresh crypto-backed source.
	// A caller-provided Rand is serialized by the session (queries sharing
	// one PRNG cannot draw concurrently), so seeded or crypto queries
	// parallelize better.
	Rand *rand.Rand
	// Cache, when non-nil, is consulted before planning and populated
	// after: opening a session on a graph whose fingerprint matches a
	// cached evaluation skips the Δ-grid LPs entirely. Multiple sessions
	// may share one cache.
	Cache *core.PlanCache
	// Audit, when non-nil, receives one append-only record per accountant
	// event — session open, and every reserve/charge/refund with request
	// ID, tenant, ε, composition mode, and outcome (see internal/obs's
	// AuditLog). Recording never fails a query; sink errors are latched on
	// the sink. Events are ordered and balance-stamped under one session
	// lock, so `ccdp audit` can replay them and reconcile the spent values
	// exactly.
	Audit obs.AuditSink
}

// QueryOptions configures one private query.
type QueryOptions struct {
	// Epsilon is this query's privacy budget. Required; debited from the
	// session total on admission.
	Epsilon float64
	// Mode applies to component-count queries only (PrivateN by default);
	// a spanning-forest query with Mode set is rejected.
	Mode Mode
	// Seed, when nonzero, makes the release reproducible: the query draws
	// from NewRand(Seed) and equals the one-shot call with the same seed.
	// Reproducible releases are for testing only — they are not private.
	// Zero uses the session's noise source (crypto-grade by default).
	Seed uint64
}

// Stats is a snapshot of a session's serving counters.
type Stats struct {
	// PlansBuilt is how many grid evaluations this session computed: 1 for
	// a cold open plus one per delta the plan cache could not serve whole
	// (component sub-plans may still have cut the work; see
	// DeltaResult.SubPlanHits), 0 for a fully cached history.
	PlansBuilt int
	// CacheHit reports whether Open was served from the plan cache.
	CacheHit bool
	// Queries, Admitted, and Rejected count all queries received, those
	// that passed budget admission, and those refused (budget or
	// validation).
	Queries, Admitted, Rejected int64
	// Deltas counts ApplyDelta calls that committed (including no-ops);
	// DeltasRejected counts attempts refused by validation or failed by
	// evaluation errors, which leave the served graph unchanged.
	Deltas, DeltasRejected int64
	// TotalBudget, Spent, and Remaining describe the accountant's state;
	// under advanced composition Spent is the global privacy loss
	// guaranteed so far (not the raw Σε_i).
	TotalBudget, Spent, Remaining float64
	// Accountant names the composition rule in force ("sequential" or
	// "advanced"); Delta is its failure probability (0 when pure ε).
	Accountant string
	Delta      float64
	// Engine aggregates the extension evaluator's work for the currently
	// served plan (zero when the plan cache supplied it).
	Engine forestlp.Stats
}

// snapshot is one immutable serving state: the grid evaluation queries
// release from. ApplyDelta swaps it atomically, so a racing query sees the
// pre-delta or post-delta state, never a torn mixture.
type snapshot struct {
	ge *core.GridEval
	// built reports this session computed the evaluation itself (a cache
	// miss); it feeds the PlansBuilt and Engine stats.
	built bool
}

// Session is a long-lived serving handle on one sensitive graph: the
// expensive deterministic half of Algorithm 1 is computed (or fetched from
// the plan cache) once at Open, and every query pays only selection and
// release noise plus its ε. All methods are safe for concurrent use.
type Session struct {
	snap     atomic.Pointer[snapshot]
	cacheHit bool // open-time cache outcome

	// cache is the optional shared plan cache; ApplyDelta re-plans through
	// it so untouched components reuse their sub-plans.
	cache *core.PlanCache

	// mutMu serializes graph mutations (ApplyDelta) and guards the served
	// graph: csr, the Open-time snapshot, until the first delta decomposes
	// it once; decomp from then on, replaced by every committed delta.
	mutMu  sync.Mutex
	csr    *graph.CSR
	decomp *graph.Decomposition

	// Per-session option template; the rest defaults per query inside
	// core, which is what keeps seeded queries identical to one-shot calls.
	discrete bool
	forestLP forestlp.Options

	acct privacy.Accountant

	// audit, when non-nil, receives every accountant event; auditMu orders
	// accountant mutations and their balance-stamped records identically
	// (see audit.go). scope is the served graph's fingerprint, the
	// privacy-unit identity audit events are keyed by.
	audit   obs.AuditSink
	auditMu sync.Mutex
	scope   string

	// rand is the shared unseeded noise source (nil = fresh crypto source
	// per query); randMu serializes draws from it.
	rand   *rand.Rand
	randMu sync.Mutex

	queries        atomic.Int64
	admitted       atomic.Int64
	rejected       atomic.Int64
	deltas         atomic.Int64
	deltasRejected atomic.Int64
	plansBuilt     atomic.Int64
}

// Open snapshots g and prepares it for serving: CSR snapshot, component
// shard plan, and the full Δ-grid of extension evaluations, reused for
// every subsequent query. With a Cache whose fingerprint-keyed lookup hits,
// planning is skipped entirely. Open spends no privacy budget; a canceled
// ctx aborts the evaluation promptly with ctx.Err().
//
// Mutating g after Open does not affect the session (it serves the
// snapshot); it does change g's fingerprint, so a later Open sees the new
// graph. The stale cached plan ages out under the cache's bound.
func Open(ctx context.Context, g *graph.Graph, opts SessionOptions) (*Session, error) {
	acct := opts.Accountant
	if acct != nil {
		if opts.TotalBudget != 0 || opts.Delta != 0 || opts.Composition != privacy.Sequential {
			return nil, fmt.Errorf("serve: Accountant is exclusive with TotalBudget/Composition/Delta")
		}
	} else {
		var err error
		if acct, err = privacy.New(opts.Composition, opts.TotalBudget, opts.Delta); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	ge, hit, err := opts.Cache.GridEval(ctx, g, core.Options{ForestLP: opts.ForestLP})
	if err != nil {
		return nil, err
	}
	s := &Session{
		cacheHit: hit,
		cache:    opts.Cache,
		discrete: opts.DiscreteRelease,
		forestLP: opts.ForestLP,
		rand:     opts.Rand,
		acct:     acct,
		audit:    opts.Audit,
		scope:    ge.Fingerprint().String(),
		csr:      graph.NewCSR(g),
	}
	s.snap.Store(&snapshot{ge: ge, built: !hit})
	if !hit {
		s.plansBuilt.Store(1)
	}
	s.auditOpen(obs.RequestInfoFrom(ctx).Tenant)
	return s, nil
}

// ComponentCount releases an ε-node-private estimate of f_cc, debiting
// q.Epsilon from the session budget (ErrBudgetExhausted if it does not
// fit — nothing is spent then). q.Mode selects the vertex-count treatment.
func (s *Session) ComponentCount(ctx context.Context, q QueryOptions) (core.Result, error) {
	return s.query(ctx, OpComponentCount, q)
}

// SpanningForestSize releases an ε-node-private estimate of f_sf, debiting
// q.Epsilon from the session budget.
func (s *Session) SpanningForestSize(ctx context.Context, q QueryOptions) (core.Result, error) {
	return s.query(ctx, OpSpanningForestSize, q)
}

// query validates, admits, and executes one private query. The "serve.admit"
// span covers validation plus budget admission (admitted=1 only when the
// reservation held), "serve.execute" covers the release; both carry no
// timing-derived attributes, and every accountant touch goes through the
// audited helpers in audit.go.
func (s *Session) query(ctx context.Context, op Op, q QueryOptions) (res core.Result, err error) {
	s.queries.Add(1)
	info := obs.RequestInfoFrom(ctx)
	admit, ctx := obs.StartSpan(ctx, "serve.admit")
	admit.SetLabel("op", op.String())
	if err := s.validate(op, q); err != nil {
		s.rejected.Add(1)
		admit.SetCounter("admitted", 0)
		admit.SetLabel("reject", "validate")
		admit.End()
		return core.Result{}, err
	}
	if err := ctx.Err(); err != nil {
		s.rejected.Add(1)
		admit.SetCounter("admitted", 0)
		admit.SetLabel("reject", "canceled")
		admit.End()
		return core.Result{}, err
	}
	if err := s.reserveAudited(info, "", q.Epsilon); err != nil {
		s.rejected.Add(1)
		admit.SetCounter("admitted", 0)
		admit.SetLabel("reject", "budget")
		admit.End()
		return core.Result{}, err
	}
	s.admitted.Add(1)
	admit.SetCounter("admitted", 1)
	admit.End()
	exec, ectx := obs.StartSpan(ctx, "serve.execute")
	res, err = s.execute(ectx, op, q)
	exec.End()
	if err != nil && errIsCancel(err) {
		// The core release path checks ctx exactly once, before any noise
		// is drawn, so a cancelation error means nothing was released and
		// the reservation can be returned.
		s.refundAudited(info, "", q.Epsilon)
		return res, err
	}
	// Any other error keeps the budget spent: noise may already have been
	// drawn, and accounting must stay conservative.
	s.chargeAudited(info, "", q.Epsilon, err)
	return res, err
}

// validate rejects malformed queries before any budget or noise is
// touched. Session-wide options were validated at Open.
func (s *Session) validate(op Op, q QueryOptions) error {
	if q.Epsilon <= 0 || math.IsNaN(q.Epsilon) || math.IsInf(q.Epsilon, 0) {
		return fmt.Errorf("serve: query epsilon %v must be positive and finite", q.Epsilon)
	}
	if op == OpSpanningForestSize && q.Mode != PrivateN {
		return fmt.Errorf("serve: Mode applies only to component-count queries")
	}
	if q.Mode != PrivateN && q.Mode != KnownN {
		return fmt.Errorf("serve: unknown mode %v", q.Mode)
	}
	return nil
}

// execute runs the admitted query's random half on the shared plan.
func (s *Session) execute(ctx context.Context, op Op, q QueryOptions) (core.Result, error) {
	var rng *rand.Rand
	switch {
	case q.Seed != 0:
		rng = generate.NewRand(q.Seed)
	case s.rand != nil:
		// A shared PRNG is stateful: serialize draws from it.
		s.randMu.Lock()
		defer s.randMu.Unlock()
		rng = s.rand
	default:
		rng = dpnoise.NewCryptoRand()
	}
	opts := core.Options{Epsilon: q.Epsilon, Rand: rng, DiscreteRelease: s.discrete}
	// One snapshot read serves the whole query: a delta landing mid-query
	// cannot mix pre- and post-mutation state.
	ge := s.snap.Load().ge
	switch {
	case op == OpSpanningForestSize:
		return core.EstimateSpanningForestSizeFromGrid(ctx, ge, opts)
	case q.Mode == KnownN:
		return core.EstimateComponentCountKnownNFromGrid(ctx, ge, opts)
	default:
		return core.EstimateComponentCountFromGrid(ctx, ge, opts)
	}
}

// TotalBudget returns ε_total, the global cap the accountant enforces.
func (s *Session) TotalBudget() float64 { return s.acct.EpsilonBudget() }

// Spent returns the global privacy loss guaranteed for the admitted queries
// so far, as measured by the session's composition accountant (the raw
// Σε_i under sequential composition; the advanced-composition bound — often
// much smaller than Σε_i — under privacy.Advanced).
func (s *Session) Spent() float64 { return s.acct.Spent() }

// Remaining returns TotalBudget() − Spent().
func (s *Session) Remaining() float64 { return s.acct.Remaining() }

// Delta returns the accountant's failure probability δ (0 for pure-ε
// sequential composition).
func (s *Session) Delta() float64 { return s.acct.Delta() }

// AccountantName identifies the composition rule in force.
func (s *Session) AccountantName() string { return s.acct.Name() }

// Fingerprint returns the canonical fingerprint of the currently served
// graph (post-delta once ApplyDelta commits). The audit scope, by contrast,
// stays pinned to the open-time fingerprint so one session writes one
// contiguous audit stream.
func (s *Session) Fingerprint() graph.Fingerprint { return s.snap.Load().ge.Fingerprint() }

// N returns the served graph's vertex count. Like every non-Estimate
// accessor it is exact data-dependent information: do not release it when
// the vertex count is sensitive.
func (s *Session) N() int { return s.snap.Load().ge.N() }

// Stats returns a snapshot of the session's serving counters. The budget
// triple is read atomically (Spent + Remaining == TotalBudget always), and
// Admitted/Rejected are read before Queries, so Queries ≥ Admitted +
// Rejected holds even while queries are in flight.
func (s *Session) Stats() Stats {
	snap := s.snap.Load()
	var engine forestlp.Stats
	if snap.built {
		engine = snap.ge.Stats()
	}
	spent, remaining := s.acct.Snapshot()
	admitted, rejected := s.admitted.Load(), s.rejected.Load()
	return Stats{
		PlansBuilt:     int(s.plansBuilt.Load()),
		CacheHit:       s.cacheHit,
		Queries:        s.queries.Load(),
		Admitted:       admitted,
		Rejected:       rejected,
		Deltas:         s.deltas.Load(),
		DeltasRejected: s.deltasRejected.Load(),
		TotalBudget:    s.acct.EpsilonBudget(),
		Spent:          spent,
		Remaining:      remaining,
		Accountant:     s.acct.Name(),
		Delta:          s.acct.Delta(),
		Engine:         engine,
	}
}

// errIsCancel reports whether err is a context cancelation or deadline.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
