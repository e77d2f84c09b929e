package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"nodedp/internal/core"
	"nodedp/internal/generate"
	"nodedp/internal/graph"
	"nodedp/internal/privacy"
)

// testGraph is a small multi-component workload shared by the tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return generate.PlantedComponents([]int{8, 8, 8}, 0.4, generate.NewRand(11))
}

func mustOpen(t testing.TB, g *graph.Graph, opts SessionOptions) *Session {
	t.Helper()
	s, err := Open(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenValidatesBudget(t *testing.T) {
	g := testGraph(t)
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Open(context.Background(), g, SessionOptions{TotalBudget: bad}); err == nil {
			t.Fatalf("TotalBudget %v accepted", bad)
		}
	}
}

// TestOpenEdgelessAllocation bounds what Open allocates per isolated
// vertex. An upload's vertex count is bounded by the daemon's read limit
// in bytes, and an edgeless upload of n vertices is a few bytes long, so
// this per-vertex cost is what one small request can make the daemon
// allocate.
func TestOpenEdgelessAllocation(t *testing.T) {
	const n = 100_000
	g := graph.New(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(context.Background(), g, SessionOptions{TotalBudget: 1, Cache: core.NewPlanCache(4)})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != n {
		t.Fatalf("N = %d, want %d", s.N(), n)
	}
	if perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n; perVertex >= 300 {
		t.Fatalf("Open allocated %.0f bytes per isolated vertex, want under 300", perVertex)
	}
}

func TestSessionMatchesOneShot(t *testing.T) {
	g := testGraph(t)
	s := mustOpen(t, g, SessionOptions{TotalBudget: 100})
	ctx := context.Background()

	for seed := uint64(1); seed <= 4; seed++ {
		oneShot, err := core.EstimateComponentCountCtx(ctx, g,
			core.Options{Epsilon: 0.5, Rand: generate.NewRand(seed)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != oneShot.Value || got.Delta != oneShot.Delta || got.NHat != oneShot.NHat {
			t.Fatalf("seed %d: session release (%v, Δ=%v) != one-shot (%v, Δ=%v)",
				seed, got.Value, got.Delta, oneShot.Value, oneShot.Delta)
		}

		oneShotSF, err := core.EstimateSpanningForestSizeCtx(ctx, g,
			core.Options{Epsilon: 0.25, Rand: generate.NewRand(seed)})
		if err != nil {
			t.Fatal(err)
		}
		gotSF, err := s.SpanningForestSize(ctx, QueryOptions{Epsilon: 0.25, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if gotSF.Value != oneShotSF.Value {
			t.Fatalf("seed %d: sf session %v != one-shot %v", seed, gotSF.Value, oneShotSF.Value)
		}

		oneShotKN, err := core.EstimateComponentCountKnownNCtx(ctx, g,
			core.Options{Epsilon: 0.25, Rand: generate.NewRand(seed)})
		if err != nil {
			t.Fatal(err)
		}
		gotKN, err := s.ComponentCount(ctx, QueryOptions{Epsilon: 0.25, Mode: KnownN, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if gotKN.Value != oneShotKN.Value {
			t.Fatalf("seed %d: known-n session %v != one-shot %v", seed, gotKN.Value, oneShotKN.Value)
		}
	}

	st := s.Stats()
	if st.PlansBuilt != 1 {
		t.Fatalf("PlansBuilt = %d, want exactly 1 for all queries", st.PlansBuilt)
	}
	if want := 4 * (0.5 + 0.25 + 0.25); math.Abs(st.Spent-want) > 1e-12 {
		t.Fatalf("Spent = %v, want %v", st.Spent, want)
	}

	// Unseeded queries on a session opened with Rand: NewRand(seed) draw
	// the one stream that successive FromGrid calls on one NewRand(seed)
	// draw, in float and in discrete mode.
	ge, _, err := (*core.PlanCache)(nil).GridEval(ctx, g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, discrete := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			shared := mustOpen(t, g, SessionOptions{TotalBudget: 100, Rand: generate.NewRand(seed), DiscreteRelease: discrete})
			opts := core.Options{Epsilon: 0.5, Rand: generate.NewRand(seed), DiscreteRelease: discrete}
			for k := 0; k < 6; k++ {
				var want, got core.Result
				var werr, gerr error
				if k%2 == 0 {
					want, werr = core.EstimateSpanningForestSizeFromGrid(ctx, ge, opts)
					got, gerr = shared.SpanningForestSize(ctx, QueryOptions{Epsilon: 0.5})
				} else {
					want, werr = core.EstimateComponentCountFromGrid(ctx, ge, opts)
					got, gerr = shared.ComponentCount(ctx, QueryOptions{Epsilon: 0.5})
				}
				if werr != nil || gerr != nil {
					t.Fatal(werr, gerr)
				}
				if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Delta != want.Delta ||
					math.Float64bits(got.NHat) != math.Float64bits(want.NHat) || got.NoiseScale != want.NoiseScale {
					t.Fatalf("discrete=%v seed %d query %d: session %+v != FromGrid %+v", discrete, seed, k, got, want)
				}
			}
		}
	}
}

// TestDiscreteComponentCountIsInteger: with DiscreteRelease, a component
// count and its private vertex count are integers, one-shot and through a
// session, and the two agree.
func TestDiscreteComponentCountIsInteger(t *testing.T) {
	g := generate.Matching(10)
	ctx := context.Background()
	s := mustOpen(t, g, SessionOptions{TotalBudget: 1e12, DiscreteRelease: true})
	for _, eps := range []float64{0.1, 1, 10} {
		for seed := uint64(1); seed <= 200; seed++ {
			oneShot, err := core.EstimateComponentCount(g, core.Options{Epsilon: eps, Rand: generate.NewRand(seed), DiscreteRelease: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.ComponentCount(ctx, QueryOptions{Epsilon: eps, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []core.Result{oneShot, got} {
				if r.Value != math.Round(r.Value) || r.NHat != math.Round(r.NHat) {
					t.Fatalf("ε=%v seed %d: value %v, n̂ %v, want integers", eps, seed, r.Value, r.NHat)
				}
			}
			if got.Value != oneShot.Value || got.NHat != oneShot.NHat {
				t.Fatalf("ε=%v seed %d: session (%v, n̂=%v) != one-shot (%v, n̂=%v)", eps, seed, got.Value, got.NHat, oneShot.Value, oneShot.NHat)
			}
		}
	}
}

// TestConcurrentQueriesNeverOverspend is the composition property test: k
// concurrent queries whose epsilons sum past the total budget admit at most
// the affordable count, never double-spend, and every rejection is
// ErrBudgetExhausted. Run under -race this also exercises the accountant's
// and the shared-PRNG serialization's thread safety.
func TestConcurrentQueriesNeverOverspend(t *testing.T) {
	g := testGraph(t)
	const (
		total = 1.0
		eps   = 0.125 // dyadic: 8 queries fit exactly
		k     = 20
	)
	s := mustOpen(t, g, SessionOptions{TotalBudget: total, Rand: generate.NewRand(5)})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix seeded, session-PRNG, and crypto draws across goroutines.
			var q QueryOptions
			switch i % 3 {
			case 0:
				q = QueryOptions{Epsilon: eps, Seed: uint64(i + 1)}
			case 1:
				q = QueryOptions{Epsilon: eps}
			default:
				q = QueryOptions{Epsilon: eps, Mode: KnownN}
			}
			_, errs[i] = s.ComponentCount(ctx, q)
		}(i)
	}
	wg.Wait()

	succeeded, rejected := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			succeeded++
		case errors.Is(err, ErrBudgetExhausted):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	affordable := int(total / eps)
	if succeeded != affordable {
		t.Fatalf("%d queries succeeded, want exactly %d (the affordable count)", succeeded, affordable)
	}
	if rejected != k-affordable {
		t.Fatalf("%d rejected, want %d", rejected, k-affordable)
	}
	if spent := s.Spent(); spent != float64(succeeded)*eps {
		t.Fatalf("Spent = %v, want %v: budget was double- or under-counted", spent, float64(succeeded)*eps)
	}
	if s.Remaining() != total-s.Spent() {
		t.Fatalf("Remaining %v != total-spent %v", s.Remaining(), total-s.Spent())
	}
	st := s.Stats()
	if st.Admitted != int64(affordable) || st.Rejected != int64(k-affordable) || st.Queries != k {
		t.Fatalf("stats %+v inconsistent with %d/%d admitted", st, affordable, k)
	}
}

func TestOverBudgetQuerySpendsNothing(t *testing.T) {
	g := testGraph(t)
	s := mustOpen(t, g, SessionOptions{TotalBudget: 1})
	ctx := context.Background()
	if _, err := s.ComponentCount(ctx, QueryOptions{Epsilon: 2}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if s.Spent() != 0 {
		t.Fatalf("rejected query spent %v", s.Spent())
	}
	// The budget is still fully available.
	if _, err := s.ComponentCount(ctx, QueryOptions{Epsilon: 1, Seed: 1}); err != nil {
		t.Fatalf("affordable query after rejection failed: %v", err)
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %v, want 0", s.Remaining())
	}
}

func TestQueryValidation(t *testing.T) {
	g := testGraph(t)
	s := mustOpen(t, g, SessionOptions{TotalBudget: 1})
	ctx := context.Background()
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.ComponentCount(ctx, QueryOptions{Epsilon: eps}); err == nil {
			t.Fatalf("epsilon %v accepted", eps)
		}
	}
	if _, err := s.SpanningForestSize(ctx, QueryOptions{Epsilon: 0.1, Mode: KnownN}); err == nil {
		t.Fatal("Mode on a spanning-forest query must be rejected")
	}
	if s.Spent() != 0 {
		t.Fatalf("invalid queries spent %v", s.Spent())
	}
}

func TestCanceledQueryRefunds(t *testing.T) {
	g := testGraph(t)
	s := mustOpen(t, g, SessionOptions{TotalBudget: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ComponentCount(ctx, QueryOptions{Epsilon: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Spent() != 0 {
		t.Fatalf("canceled query spent %v", s.Spent())
	}
}

// TestBatchMatchesSequential is the batch determinism property test: a
// batch served by Do releases bit-for-bit what the same seeded queries
// issued sequentially release.
func TestBatchMatchesSequential(t *testing.T) {
	g := testGraph(t)
	reqs := []Request{
		{Op: OpComponentCount, Epsilon: 0.25, Seed: 101},
		{Op: OpSpanningForestSize, Epsilon: 0.5, Seed: 102},
		{Op: OpComponentCount, Mode: KnownN, Epsilon: 0.125, Seed: 103},
		{Op: OpComponentCount, Epsilon: 0.25, Seed: 104},
	}

	batch := mustOpen(t, g, SessionOptions{TotalBudget: 2})
	resps := batch.Do(context.Background(), reqs)

	seq := mustOpen(t, g, SessionOptions{TotalBudget: 2})
	for i, r := range reqs {
		q := QueryOptions{Epsilon: r.Epsilon, Mode: r.Mode, Seed: r.Seed}
		var want core.Result
		var err error
		if r.Op == OpSpanningForestSize {
			want, err = seq.SpanningForestSize(context.Background(), q)
		} else {
			want, err = seq.ComponentCount(context.Background(), q)
		}
		if err != nil || resps[i].Err != nil {
			t.Fatalf("request %d errored: batch=%v seq=%v", i, resps[i].Err, err)
		}
		if resps[i].Result.Value != want.Value || resps[i].Result.Delta != want.Delta {
			t.Fatalf("request %d: batch release (%v, Δ=%v) != sequential (%v, Δ=%v)",
				i, resps[i].Result.Value, resps[i].Result.Delta, want.Value, want.Delta)
		}
	}
	if batch.Spent() != seq.Spent() {
		t.Fatalf("batch spent %v, sequential spent %v", batch.Spent(), seq.Spent())
	}
}

// TestBatchAdmitsAffordablePrefix checks deterministic in-order admission:
// with uniform epsilons exceeding the budget, exactly the affordable prefix
// is admitted and the tail fails with ErrBudgetExhausted.
func TestBatchAdmitsAffordablePrefix(t *testing.T) {
	g := testGraph(t)
	s := mustOpen(t, g, SessionOptions{TotalBudget: 1})
	reqs := make([]Request, 7)
	for i := range reqs {
		reqs[i] = Request{Op: OpComponentCount, Epsilon: 0.25, Seed: uint64(i + 1)}
	}
	resps := s.Do(context.Background(), reqs)
	for i, r := range resps {
		if i < 4 && r.Err != nil {
			t.Fatalf("prefix request %d rejected: %v", i, r.Err)
		}
		if i >= 4 && !errors.Is(r.Err, ErrBudgetExhausted) {
			t.Fatalf("tail request %d: err = %v, want ErrBudgetExhausted", i, r.Err)
		}
	}
	if s.Spent() != 1 {
		t.Fatalf("Spent = %v, want 1", s.Spent())
	}
}

func TestSessionSharesPlanViaCache(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}
	g1, err := graph.FromEdges(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Same graph, reversed insertion order — a "re-read" copy.
	g2 := graph.New(6)
	for i := len(edges) - 1; i >= 0; i-- {
		if err := g2.AddEdge(edges[i].U, edges[i].V); err != nil {
			t.Fatal(err)
		}
	}

	cache := core.NewPlanCache(4)
	ctx := context.Background()
	s1, err := Open(ctx, g1, SessionOptions{TotalBudget: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(ctx, g2, SessionOptions{TotalBudget: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Stats().PlansBuilt != 1 || s1.Stats().CacheHit {
		t.Fatalf("cold open: %+v, want 1 plan built", s1.Stats())
	}
	if s2.Stats().PlansBuilt != 0 || !s2.Stats().CacheHit {
		t.Fatalf("warm open: %+v, want cache hit and 0 plans built", s2.Stats())
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("identical graphs must share a fingerprint")
	}
	// Both sessions release identically for identical seeds.
	r1, err := s1.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Value != r2.Value {
		t.Fatalf("shared-plan sessions disagree: %v vs %v", r1.Value, r2.Value)
	}
	// Budgets are per-session, not per-cache-entry.
	if s1.Spent() != 0.5 || s2.Spent() != 0.5 {
		t.Fatalf("budgets leaked across sessions: %v, %v", s1.Spent(), s2.Spent())
	}
}

// TestBatchSharedRandDeterministic pins the fix for unseeded batches on a
// seeded session: requests drawing from the shared session PRNG execute in
// request order, so two identically-seeded sessions produce identical
// batches, and a batch equals the same queries issued sequentially.
func TestBatchSharedRandDeterministic(t *testing.T) {
	g := testGraph(t)
	reqs := []Request{
		{Op: OpComponentCount, Epsilon: 0.25},
		{Op: OpSpanningForestSize, Epsilon: 0.25},
		{Op: OpComponentCount, Mode: KnownN, Epsilon: 0.25},
		{Op: OpComponentCount, Epsilon: 0.25},
	}
	run := func() []float64 {
		s := mustOpen(t, g, SessionOptions{TotalBudget: 1, Rand: generate.NewRand(77)})
		resps := s.Do(context.Background(), reqs)
		vals := make([]float64, len(resps))
		for i, r := range resps {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
			vals[i] = r.Result.Value
		}
		return vals
	}
	first := run()
	second := run()

	seq := mustOpen(t, g, SessionOptions{TotalBudget: 1, Rand: generate.NewRand(77)})
	for i, r := range reqs {
		q := QueryOptions{Epsilon: r.Epsilon, Mode: r.Mode}
		var want core.Result
		var err error
		if r.Op == OpSpanningForestSize {
			want, err = seq.SpanningForestSize(context.Background(), q)
		} else {
			want, err = seq.ComponentCount(context.Background(), q)
		}
		if err != nil {
			t.Fatalf("sequential request %d: %v", i, err)
		}
		if first[i] != second[i] || first[i] != want.Value {
			t.Fatalf("request %d not deterministic: batch runs %v / %v, sequential %v",
				i, first[i], second[i], want.Value)
		}
	}
}

// TestConcurrentColdOpensPlanOnce races many cold Opens of the same graph
// against one shared cache: the single-flight layer must let exactly one of
// them build the plan while the rest coalesce onto it, and every session
// must serve identical seeded releases.
func TestConcurrentColdOpensPlanOnce(t *testing.T) {
	g := testGraph(t)
	cache := core.NewPlanCache(4)
	ctx := context.Background()

	const openers = 12
	sessions := make([]*Session, openers)
	errs := make([]error, openers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < openers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sessions[i], errs[i] = Open(ctx, g, SessionOptions{TotalBudget: 10, Cache: cache})
		}(i)
	}
	close(start)
	wg.Wait()

	plansBuilt := 0
	for i, s := range sessions {
		if errs[i] != nil {
			t.Fatalf("open %d: %v", i, errs[i])
		}
		plansBuilt += s.Stats().PlansBuilt
	}
	if plansBuilt != 1 {
		t.Fatalf("%d plans built across %d concurrent cold opens, want 1", plansBuilt, openers)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v, want exactly one miss and one entry", st)
	}
	// All sessions share the evaluation: identical seeded releases.
	want, err := sessions[0].ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < openers; i++ {
		got, err := sessions[i].ComponentCount(ctx, QueryOptions{Epsilon: 0.5, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("session %d released %v, session 0 released %v", i, got.Value, want.Value)
		}
	}
}

// TestAdvancedAccountantAdmitsMore: the same graph and ε_total admit many
// more small queries under the advanced-composition accountant than under
// sequential composition, and seeded releases are identical between the
// two — the accountant changes admission, never values.
func TestAdvancedAccountantAdmitsMore(t *testing.T) {
	g := testGraph(t)
	ctx := context.Background()
	cache := core.NewPlanCache(2)
	const eps = 0.01

	count := func(s *Session) int {
		n := 0
		for {
			if _, err := s.ComponentCount(ctx, QueryOptions{Epsilon: eps, Seed: uint64(n + 1)}); err != nil {
				if !errors.Is(err, ErrBudgetExhausted) {
					t.Fatal(err)
				}
				return n
			}
			n++
			if n > 100000 {
				t.Fatal("session admitted unboundedly many queries")
			}
		}
	}
	seq := mustOpen(t, g, SessionOptions{TotalBudget: 2, Cache: cache})
	adv := mustOpen(t, g, SessionOptions{TotalBudget: 2, Composition: privacy.Advanced, Delta: 1e-9, Cache: cache})

	// Seeded releases agree before exhaustion: same plan, same noise path.
	// (The probe stays at the small query ε: a single large query would
	// dominate the advanced bound's Σε² term and mask the admission win.)
	w, err := seq.SpanningForestSize(ctx, QueryOptions{Epsilon: eps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := adv.SpanningForestSize(ctx, QueryOptions{Epsilon: eps, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(w.Value) != math.Float64bits(got.Value) {
		t.Fatalf("accountants changed the release: %v vs %v", w.Value, got.Value)
	}

	nSeq, nAdv := count(seq), count(adv)
	if nAdv <= nSeq {
		t.Fatalf("advanced admitted %d queries, sequential %d; want strictly more", nAdv, nSeq)
	}

	st := adv.Stats()
	if st.Accountant != "advanced" || st.Delta != 1e-9 {
		t.Fatalf("stats identify accountant %q δ=%v, want advanced δ=1e-9", st.Accountant, st.Delta)
	}
	if st.Spent > st.TotalBudget {
		t.Fatalf("advanced session overspent: %v > %v", st.Spent, st.TotalBudget)
	}
	if seqSt := seq.Stats(); seqSt.Accountant != "sequential" || seqSt.Delta != 0 {
		t.Fatalf("stats identify accountant %q δ=%v, want sequential δ=0", seqSt.Accountant, seqSt.Delta)
	}
}

// TestSessionOptionsAccountantInjection: a caller-provided ledger is used
// directly (shared across sessions), and is exclusive with the built-in
// selector fields.
func TestSessionOptionsAccountantInjection(t *testing.T) {
	g := testGraph(t)
	cache := core.NewPlanCache(2)
	acct, err := privacy.NewSequential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a := mustOpen(t, g, SessionOptions{Accountant: acct, Cache: cache})
	b := mustOpen(t, g, SessionOptions{Accountant: acct, Cache: cache})
	ctx := context.Background()
	if _, err := a.ComponentCount(ctx, QueryOptions{Epsilon: 0.3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// The ledger is shared: b's query must see a's spend.
	if _, err := b.ComponentCount(ctx, QueryOptions{Epsilon: 0.3, Seed: 2}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("shared accountant not enforced across sessions: err = %v", err)
	}

	for _, bad := range []SessionOptions{
		{Accountant: acct, TotalBudget: 1},
		{Accountant: acct, Delta: 1e-9},
		{Accountant: acct, Composition: privacy.Advanced},
		{TotalBudget: 1, Delta: 1e-9},                   // delta without advanced
		{TotalBudget: 1, Composition: privacy.Advanced}, // advanced without delta
	} {
		if _, err := Open(ctx, g, bad); err == nil {
			t.Errorf("SessionOptions %+v accepted, want error", bad)
		}
	}
}
