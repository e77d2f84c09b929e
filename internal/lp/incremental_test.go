package lp

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// randomForestish builds a random feasible LP in the shape this package
// cares about: sparse 0/1-ish constraint rows, small nonnegative integer
// rhs, positive objective. Bounded by construction (every column appears
// in at least one row with a positive coefficient).
func randomForestish(rng *rand.Rand, n, m int) (c []float64, a [][]float64, b []float64) {
	c = make([]float64, n)
	for j := range c {
		c[j] = 1 + float64(rng.Intn(3))
	}
	a = make([][]float64, m)
	b = make([]float64, m)
	// Row 0 caps the sum of all variables so every row prefix containing
	// it is bounded — the append tests grow the row set incrementally and
	// must stay bounded at every step.
	cap0 := make([]float64, n)
	for j := range cap0 {
		cap0[j] = 1
	}
	a[0] = cap0
	b[0] = float64(2 + rng.Intn(n))
	for i := 1; i < m; i++ {
		row := make([]float64, n)
		nz := 0
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = float64(1 + rng.Intn(2))
				nz++
			}
		}
		if nz == 0 {
			row[rng.Intn(n)] = 1
			nz = 1
		}
		a[i] = row
		b[i] = float64(1 + rng.Intn(nz+2))
	}
	return c, a, b
}

func ratValue(t *testing.T, c []float64, a [][]float64, b []float64) float64 {
	t.Helper()
	cr := make([]*big.Rat, len(c))
	for j := range c {
		cr[j] = RatFromFloat(c[j])
	}
	ar := make([][]*big.Rat, len(a))
	for i := range a {
		ar[i] = make([]*big.Rat, len(a[i]))
		for j := range a[i] {
			ar[i][j] = RatFromFloat(a[i][j])
		}
	}
	br := make([]*big.Rat, len(b))
	for i := range b {
		br[i] = RatFromFloat(b[i])
	}
	sol, err := MaximizeRat(cr, ar, br, 0)
	if err != nil || sol.Status != Optimal {
		t.Fatalf("exact solve failed: %v status %v", err, sol.Status)
	}
	v, _ := sol.Value.Float64()
	return v
}

// TestIncrementalAppendRowsAgainstRebuild grows random LPs row by row,
// comparing the standing solver against a from-scratch Maximize and the
// exact big.Rat simplex at every step.
func TestIncrementalAppendRowsAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(6)
		mTotal := 3 + rng.Intn(8)
		c, a, b := randomForestish(rng, n, mTotal)
		m0 := 1 + rng.Intn(mTotal)

		inc, err := NewIncremental(c, a[:m0], b[:m0], Options{})
		if err != nil {
			t.Fatalf("trial %d: NewIncremental: %v", trial, err)
		}
		for m := m0; m <= mTotal; m++ {
			if m > m0 {
				if err := inc.AppendRows(a[m-1:m], b[m-1:m]); err != nil {
					t.Fatalf("trial %d: AppendRows: %v", trial, err)
				}
			}
			got, err := inc.SolveCtx(context.Background())
			if err != nil {
				t.Fatalf("trial %d m=%d: incremental Solve: %v", trial, m, err)
			}
			want, err := Maximize(c, a[:m], b[:m], Options{})
			if err != nil {
				t.Fatalf("trial %d m=%d: Maximize: %v", trial, m, err)
			}
			if got.Status != Optimal || want.Status != Optimal {
				t.Fatalf("trial %d m=%d: statuses %v vs %v", trial, m, got.Status, want.Status)
			}
			if math.Abs(got.Value-want.Value) > 1e-7*(1+math.Abs(want.Value)) {
				t.Fatalf("trial %d m=%d: incremental %v vs rebuild %v", trial, m, got.Value, want.Value)
			}
			exact := ratValue(t, c, a[:m], b[:m])
			if math.Abs(got.Value-exact) > 1e-7*(1+math.Abs(exact)) {
				t.Fatalf("trial %d m=%d: incremental %v vs exact %v", trial, m, got.Value, exact)
			}
		}
	}
}

// TestIncrementalAppendRowsAmortized pins the in-place tableau growth: a
// long cutting-plane run (80 appends of 4 rows onto a 200-column,
// 100-row program) must allocate a small multiple of the final tableau,
// not a fresh copy of the whole tableau per append.
func TestIncrementalAppendRowsAmortized(t *testing.T) {
	const n, m0, rounds, k = 200, 100, 80, 4
	c, a, b := randomForestish(rand.New(rand.NewSource(64)), n, m0+rounds*k)
	inc, err := NewIncremental(c, a[:m0], b[:m0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		lo := m0 + r*k
		if err := inc.AppendRows(a[lo:lo+k], b[lo:lo+k]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	m := m0 + rounds*k
	tableau := uint64((m + 1) * (n + m + 1) * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*tableau {
		t.Fatalf("appends allocated %d bytes, %.1f× the final %d-byte tableau (limit 8×)",
			got, float64(got)/float64(tableau), tableau)
	}
	if inc.Rows() != m {
		t.Fatalf("%d rows after the appends, want %d", inc.Rows(), m)
	}
}

// TestIncrementalSetRHSSweep walks the rhs down and back up (the Δ-grid
// motion), checking the slid solver against cold solves and the exact
// oracle at every step.
func TestIncrementalSetRHSSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(5)
		m := 4 + rng.Intn(5)
		c, a, b := randomForestish(rng, n, m)

		inc, err := NewIncremental(c, a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.SolveCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		scales := []float64{0.5, 0.25, 1, 2, 0.75}
		for _, s := range scales {
			bs := make([]float64, m)
			for i := range bs {
				bs[i] = math.Floor(b[i] * s)
			}
			if err := inc.SetRHS(bs); err != nil {
				t.Fatalf("trial %d scale %v: SetRHS: %v", trial, s, err)
			}
			got, err := inc.SolveCtx(context.Background())
			if err != nil {
				t.Fatalf("trial %d scale %v: Solve: %v", trial, s, err)
			}
			exact := ratValue(t, c, a, bs)
			if math.Abs(got.Value-exact) > 1e-7*(1+math.Abs(exact)) {
				t.Fatalf("trial %d scale %v: incremental %v vs exact %v", trial, s, got.Value, exact)
			}
		}
	}
}

// TestIncrementalDegenerate hammers a highly degenerate family — many
// duplicated tight rows, ties everywhere — interleaving rhs changes and
// row appends. The Bland fallback must keep both paths terminating and
// agreeing with the exact oracle.
func TestIncrementalDegenerate(t *testing.T) {
	n := 6
	c := make([]float64, n)
	for j := range c {
		c[j] = 1
	}
	var a [][]float64
	var b []float64
	for i := 0; i < 4; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1
		}
		a = append(a, row)
		b = append(b, 2)
	}
	inc, err := NewIncremental(c, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	for step := 0; step < 20; step++ {
		switch step % 3 {
		case 0:
			row := make([]float64, n)
			lo := rng.Intn(n - 1)
			for j := lo; j < n; j++ {
				row[j] = 1
			}
			a = append(a, row)
			b = append(b, float64(1+rng.Intn(2)))
			if err := inc.AppendRows(a[len(a)-1:], b[len(b)-1:]); err != nil {
				t.Fatal(err)
			}
		default:
			b[rng.Intn(len(b))] = float64(1 + rng.Intn(3))
			if err := inc.SetRHS(b); err != nil {
				t.Fatal(err)
			}
		}
		got, err := inc.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		exact := ratValue(t, c, a, b)
		if math.Abs(got.Value-exact) > 1e-7*(1+math.Abs(exact)) {
			t.Fatalf("step %d: incremental %v vs exact %v", step, got.Value, exact)
		}
	}
}

// TestIncrementalWarmStartAccounting verifies NewIncremental's basis
// restoration mirrors Maximize's warm-start semantics and that the
// restoration work is reported by the first Solve only.
func TestIncrementalWarmStartAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	c, a, b := randomForestish(rng, 8, 6)
	cold, err := Maximize(c, a, b, Options{})
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v %v", err, cold.Status)
	}
	inc, err := NewIncremental(c, a, b, Options{Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	first, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !first.WarmStarted {
		t.Fatal("restored optimal basis should warm-start")
	}
	if first.Pivots != 0 {
		t.Fatalf("re-solving from the optimal basis should need 0 primal pivots, got %d", first.Pivots)
	}
	if math.Abs(first.Value-cold.Value) > 1e-9*(1+math.Abs(cold.Value)) {
		t.Fatalf("warm %v vs cold %v", first.Value, cold.Value)
	}
	second, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.WarmStarted || second.WarmPivots != 0 {
		t.Fatalf("warm accounting leaked into the second solve: %+v", second)
	}

	// A malformed basis must silently fall back to the all-slack start.
	badBasis := []int{0, 0, 0, 0, 0, 0}
	inc2, err := NewIncremental(c, a, b, Options{Basis: badBasis})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := inc2.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.WarmStarted {
		t.Fatal("duplicate basis entries should be rejected")
	}
	if math.Abs(s2.Value-cold.Value) > 1e-9*(1+math.Abs(cold.Value)) {
		t.Fatalf("fallback %v vs cold %v", s2.Value, cold.Value)
	}
}

// TestIncrementalRefactorize forces the explicit refactorization path
// after heavy mutation traffic and checks it lands on the same optimum
// with zero extra primal pivots (the basis set is preserved).
func TestIncrementalRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	c, a, b := randomForestish(rng, 10, 5)
	inc, err := NewIncremental(c, a[:3], b[:3], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.SolveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendRows(a[3:], b[3:]); err != nil {
		t.Fatal(err)
	}
	before, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inc.refactorize(); !ok {
		t.Fatal("refactorizing an optimal basis failed")
	}
	after, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if after.Pivots != 0 {
		t.Fatalf("refactorized basis should re-prove optimality in 0 pivots, got %d", after.Pivots)
	}
	if math.Abs(after.Value-before.Value) > 1e-9*(1+math.Abs(before.Value)) {
		t.Fatalf("refactorize changed the optimum: %v vs %v", after.Value, before.Value)
	}
}

// TestIncrementalPoison pins the distress contract: a poisoned solver
// fails every solve with ErrNumericalDistress and stays failed.
func TestIncrementalPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	c, a, b := randomForestish(rng, 6, 4)
	inc, err := NewIncremental(c, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.SolveCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	inc.poisoned = true
	if _, err := inc.SolveCtx(context.Background()); !errors.Is(err, ErrNumericalDistress) {
		t.Fatalf("poisoned Solve returned %v, want ErrNumericalDistress", err)
	}
	if _, err := inc.SolveCtx(context.Background()); !errors.Is(err, ErrNumericalDistress) {
		t.Fatal("distress must be sticky")
	}
}

// TestIncrementalResidualCheckHeals corrupts the standing tableau behind
// the solver's back (simulated fill-in drift) and verifies the residual
// self-check catches it and one refactorization heals it — the certified
// fast path's whole reason to exist.
func TestIncrementalResidualCheckHeals(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	c, a, b := randomForestish(rng, 8, 6)
	inc, err := NewIncremental(c, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the rhs column of every row holding a basic structural
	// variable: extractX reads exactly these cells, so the claimed point
	// drifts off the polytope while the basis stays intact.
	corrupted := false
	for i, bv := range inc.basis {
		if bv < inc.n && inc.tab.rows[i][inc.n+inc.m] > 0 {
			inc.tab.rows[i][inc.n+inc.m] *= 1.5
			corrupted = true
		}
	}
	if !corrupted {
		t.Skip("optimum has no positive basic structural variable to corrupt")
	}
	got, err := inc.SolveCtx(context.Background())
	if err != nil {
		t.Fatalf("self-check should heal via refactorization, got %v", err)
	}
	if got.Refactorizations == 0 {
		t.Fatal("corruption went unnoticed: no refactorization recorded")
	}
	if math.Abs(got.Value-want.Value) > 1e-9*(1+math.Abs(want.Value)) {
		t.Fatalf("healed value %v vs original %v", got.Value, want.Value)
	}
}

// TestIncrementalBadInput covers the validation surface.
func TestIncrementalBadInput(t *testing.T) {
	c := []float64{1, 1}
	a := [][]float64{{1, 1}}
	b := []float64{2}
	if _, err := NewIncremental(c, a, []float64{-1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("negative rhs must be rejected")
	}
	if _, err := NewIncremental(c, [][]float64{{1}}, b, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatal("ragged row must be rejected")
	}
	inc, err := NewIncremental(c, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetRHS([]float64{-1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("SetRHS negative rhs must be rejected")
	}
	if err := inc.SetRHS([]float64{1, 2}); !errors.Is(err, ErrBadInput) {
		t.Fatal("SetRHS length mismatch must be rejected")
	}
	if err := inc.AppendRows([][]float64{{1}}, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Fatal("AppendRows ragged row must be rejected")
	}
	if err := inc.AppendRows(nil, nil); err != nil {
		t.Fatalf("empty append must be a no-op, got %v", err)
	}
}

// TestMaximizeMatchesFreshIncremental pins that Maximize and a fresh
// standing solver are one solver. On random forest-shaped programs and
// three starts — cold, an accepted basis (the optimum of the same rows,
// reused under a shifted rhs) and a rejected one (duplicate entries) —
// Maximize and NewIncremental followed by SolveCtx must return the same
// status, the same bits in Value and every X entry, and the same basis and
// pivot accounting.
func TestMaximizeMatchesFreshIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		m := 3 + rng.Intn(8)
		c, a, b := randomForestish(rng, n, m)
		// Tenths are not dyadic, so the bits of Value depend on the order
		// of its sum.
		for j := range c {
			c[j] += float64(rng.Intn(10)) / 10
		}
		opt, err := Maximize(c, a, b, Options{})
		if err != nil || opt.Status != Optimal {
			t.Fatalf("trial %d: cold solve: %v %v", trial, err, opt.Status)
		}
		shifted := make([]float64, m)
		for i := range shifted {
			shifted[i] = b[i] + float64(rng.Intn(3))
		}
		starts := []struct {
			name  string
			b     []float64
			basis []int
			warm  bool
		}{
			{"cold", b, nil, false},
			{"accepted", shifted, opt.Basis, true},
			{"rejected", b, make([]int, m), false},
		}
		for _, st := range starts {
			want, err := Maximize(c, a, st.b, Options{Basis: st.basis})
			if err != nil {
				t.Fatalf("trial %d %s: Maximize: %v", trial, st.name, err)
			}
			inc, err := NewIncremental(c, a, st.b, Options{Basis: st.basis})
			if err != nil {
				t.Fatalf("trial %d %s: NewIncremental: %v", trial, st.name, err)
			}
			got, err := inc.SolveCtx(context.Background())
			if err != nil {
				t.Fatalf("trial %d %s: SolveCtx: %v", trial, st.name, err)
			}
			if want.WarmStarted != st.warm {
				t.Fatalf("trial %d %s: WarmStarted = %v, want %v", trial, st.name, want.WarmStarted, st.warm)
			}
			if got.Status != want.Status || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				t.Fatalf("trial %d %s: incremental %v %v, Maximize %v %v",
					trial, st.name, got.Status, got.Value, want.Status, want.Value)
			}
			for j := range want.X {
				if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
					t.Fatalf("trial %d %s: x[%d] = %v, Maximize %v", trial, st.name, j, got.X[j], want.X[j])
				}
			}
			if !slices.Equal(got.Basis, want.Basis) || got.Pivots != want.Pivots ||
				got.WarmPivots != want.WarmPivots || got.WarmStarted != want.WarmStarted ||
				got.Refactorizations != want.Refactorizations || len(got.X) != len(want.X) {
				t.Fatalf("trial %d %s: incremental %+v\nMaximize %+v", trial, st.name, got, want)
			}
		}
	}
}
