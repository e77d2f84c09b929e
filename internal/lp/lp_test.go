package lp

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMaximizeTextbook(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, z=36.
	sol, err := Maximize(
		[]float64{3, 5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18},
		Options{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Value, 36, 1e-8) {
		t.Fatalf("got %+v, want value 36", sol)
	}
	if !approx(sol.X[0], 2, 1e-8) || !approx(sol.X[1], 6, 1e-8) {
		t.Fatalf("x = %v, want [2 6]", sol.X)
	}
}

func TestMaximizeDegenerate(t *testing.T) {
	// Classic degenerate LP; must terminate and find optimum 1 at x1=1.
	sol, err := Maximize(
		[]float64{1, 0, 0},
		[][]float64{{1, 1, 0}, {1, 0, 1}, {1, -1, -1}},
		[]float64{1, 1, 1},
		Options{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Value, 1, 1e-8) {
		t.Fatalf("got %+v", sol)
	}
}

func TestMaximizeUnbounded(t *testing.T) {
	// max x with only y bounded.
	sol, err := Maximize([]float64{1, 0}, [][]float64{{0, 1}}, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", sol.Status)
	}
}

func TestMaximizeZeroObjective(t *testing.T) {
	sol, err := Maximize([]float64{0, 0}, [][]float64{{1, 1}}, []float64{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Value != 0 {
		t.Fatalf("got %+v", sol)
	}
}

func TestMaximizeNoConstraintsBoundedByNothing(t *testing.T) {
	sol, err := Maximize([]float64{1}, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", sol.Status)
	}
}

func TestMaximizeInputValidation(t *testing.T) {
	if _, err := Maximize([]float64{1}, [][]float64{{1}}, []float64{-1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Error("negative rhs should be rejected")
	}
	if _, err := Maximize([]float64{1}, [][]float64{{1, 2}}, []float64{1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Error("ragged row should be rejected")
	}
	if _, err := Maximize([]float64{1}, [][]float64{{1}}, []float64{1, 2}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Error("rhs length mismatch should be rejected")
	}
	if _, err := Maximize([]float64{math.NaN()}, [][]float64{{1}}, []float64{1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Error("NaN objective should be rejected")
	}
	if _, err := Maximize([]float64{1}, [][]float64{{1}}, []float64{math.Inf(1)}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Error("Inf rhs should be rejected")
	}
}

func TestIterationLimit(t *testing.T) {
	sol, err := Maximize(
		[]float64{3, 5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18},
		Options{MaxPivots: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("got %v, want iteration-limit", sol.Status)
	}
	// Solution must still be feasible (within tolerance).
	if sol.X[0] < -1e-9 || sol.X[1] < -1e-9 {
		t.Fatalf("infeasible x: %v", sol.X)
	}
}

// TestWarmStartSameProblem re-solves the textbook LP from its own optimal
// basis: the restored point is already optimal, so zero simplex iterations
// are needed and the solution is unchanged.
func TestWarmStartSameProblem(t *testing.T) {
	c := []float64{3, 5}
	a := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	b := []float64{4, 12, 18}
	cold, err := Maximize(c, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || len(cold.Basis) != 3 {
		t.Fatalf("cold solve %+v", cold)
	}
	warm, err := Maximize(c, a, b, Options{Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatalf("optimal basis rejected: %+v", warm)
	}
	if warm.Status != Optimal || !approx(warm.Value, 36, 1e-8) {
		t.Fatalf("warm solve %+v, want value 36", warm)
	}
	if warm.Pivots != 0 {
		t.Fatalf("warm solve took %d iterations, want 0", warm.Pivots)
	}
	if math.Float64bits(warm.X[0]) != math.Float64bits(cold.X[0]) ||
		math.Float64bits(warm.X[1]) != math.Float64bits(cold.X[1]) {
		t.Fatalf("warm x %v != cold x %v", warm.X, cold.X)
	}
}

// TestWarmStartShiftedRHS warm-starts after an rhs change, the cutting-plane
// grid scenario: same rows and columns, different bounds. The old basis
// stays feasible here, so the warm solve needs few or no iterations and
// both solves agree with the exact optimum.
func TestWarmStartShiftedRHS(t *testing.T) {
	c := []float64{3, 5}
	a := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	cold, err := Maximize(c, a, []float64{4, 12, 18}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Relax every bound: with b = {6, 14, 26}, 2y<=14 and 3x+2y<=26 give
	// y=7, x=4, z=47.
	warm, err := Maximize(c, a, []float64{6, 14, 26}, Options{Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Maximize(c, a, []float64{6, 14, 26}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Value, ref.Value, 1e-8) {
		t.Fatalf("warm %+v, cold reference %+v", warm, ref)
	}
	if warm.WarmStarted && warm.Pivots > ref.Pivots {
		t.Fatalf("warm start took %d iterations, cold took %d", warm.Pivots, ref.Pivots)
	}
}

// TestWarmStartRejectsBadBasis: malformed or infeasible bases must fall
// back to the all-slack start and still solve correctly.
func TestWarmStartRejectsBadBasis(t *testing.T) {
	c := []float64{3, 5}
	a := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	b := []float64{4, 12, 18}
	for name, basis := range map[string][]int{
		"wrong-length": {0, 1},
		"out-of-range": {0, 1, 99},
		"duplicate":    {0, 0, 1},
	} {
		sol, err := Maximize(c, a, b, Options{Basis: basis})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.WarmStarted {
			t.Errorf("%s: basis %v was accepted", name, basis)
		}
		if sol.Status != Optimal || !approx(sol.Value, 36, 1e-8) {
			t.Errorf("%s: fallback solve %+v, want value 36", name, sol)
		}
	}
}

// TestWarmStartSlackPermutation: a basis naming the same variable SET in a
// permuted row order must restore — a basic solution is determined by
// which variables are basic, not by the rows the previous solve parked
// them in.
func TestWarmStartSlackPermutation(t *testing.T) {
	c := []float64{3, 5}
	a := [][]float64{{1, 0}, {0, 2}, {3, 2}}
	b := []float64{4, 12, 18}
	sol, err := Maximize(c, a, b, Options{Basis: []int{3, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted {
		t.Fatalf("permuted all-slack basis rejected: %+v", sol)
	}
	if sol.Status != Optimal || !approx(sol.Value, 36, 1e-8) {
		t.Fatalf("solve %+v, want value 36", sol)
	}
}

// TestCertTolIsFloat64Product pins the residual self-check tolerance to
// the float64 product of 1000 and 1e-9, the value the check has always
// used. tol is typed for this: were it untyped, 1000*tol would be exactly
// 1e-6, one ulp lower.
func TestCertTolIsFloat64Product(t *testing.T) {
	if certTol != 1.0000000000000002e-06 {
		t.Fatalf("certTol = %v, want 1.0000000000000002e-06", certTol)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Unbounded.String() != "unbounded" ||
		IterationLimit.String() != "iteration-limit" || Status(99).String() != "Status(99)" {
		t.Fatal("Status.String is wrong")
	}
}

func TestRationalTextbook(t *testing.T) {
	r := func(x int64) *big.Rat { return big.NewRat(x, 1) }
	sol, err := MaximizeRat(
		[]*big.Rat{r(3), r(5)},
		[][]*big.Rat{{r(1), r(0)}, {r(0), r(2)}, {r(3), r(2)}},
		[]*big.Rat{r(4), r(12), r(18)},
		0,
	)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Value.Cmp(r(36)) != 0 {
		t.Fatalf("got %+v", sol)
	}
}

func TestRationalUnbounded(t *testing.T) {
	r := func(x int64) *big.Rat { return big.NewRat(x, 1) }
	sol, err := MaximizeRat([]*big.Rat{r(1)}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("got %v", sol.Status)
	}
}

func TestRationalValidation(t *testing.T) {
	r := func(x int64) *big.Rat { return big.NewRat(x, 1) }
	if _, err := MaximizeRat([]*big.Rat{r(1)}, [][]*big.Rat{{r(1)}}, []*big.Rat{r(-1)}, 0); !errors.Is(err, ErrBadInput) {
		t.Error("negative rhs should be rejected")
	}
	if _, err := MaximizeRat([]*big.Rat{r(1)}, [][]*big.Rat{{r(1), r(2)}}, []*big.Rat{r(1)}, 0); !errors.Is(err, ErrBadInput) {
		t.Error("ragged row should be rejected")
	}
}

// TestFloatMatchesRational cross-validates the float solver against the
// exact one on random LPs with small integer data (b >= 0 by construction).
func TestFloatMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(5)
		m := 1 + rng.IntN(6)
		c := make([]float64, n)
		cr := make([]*big.Rat, n)
		for j := range c {
			v := int64(rng.IntN(7) - 2) // allow negatives in objective
			c[j] = float64(v)
			cr[j] = big.NewRat(v, 1)
		}
		a := make([][]float64, m)
		ar := make([][]*big.Rat, m)
		b := make([]float64, m)
		br := make([]*big.Rat, m)
		for i := 0; i < m; i++ {
			a[i] = make([]float64, n)
			ar[i] = make([]*big.Rat, n)
			for j := 0; j < n; j++ {
				v := int64(rng.IntN(5) - 1)
				a[i][j] = float64(v)
				ar[i][j] = big.NewRat(v, 1)
			}
			bv := int64(rng.IntN(10))
			b[i] = float64(bv)
			br[i] = big.NewRat(bv, 1)
		}
		fs, err := Maximize(c, a, b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := MaximizeRat(cr, ar, br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Status != rs.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, fs.Status, rs.Status)
		}
		if fs.Status == Optimal {
			exact, _ := rs.Value.Float64()
			if !approx(fs.Value, exact, 1e-6) {
				t.Fatalf("trial %d: value %v vs %v", trial, fs.Value, exact)
			}
		}
	}
}

func TestRatFromFloat(t *testing.T) {
	if RatFromFloat(0.5).Cmp(big.NewRat(1, 2)) != 0 {
		t.Fatal("0.5 should convert exactly")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NaN should panic")
		}
	}()
	RatFromFloat(math.NaN())
}

func BenchmarkSimplexDense(b *testing.B) {
	rng := rand.New(rand.NewPCG(23, 29))
	n, m := 60, 80
	c := make([]float64, n)
	for j := range c {
		c[j] = rng.Float64()
	}
	a := make([][]float64, m)
	bvec := make([]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()
		}
		bvec[i] = 1 + rng.Float64()*float64(n)/4
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Maximize(c, a, bvec, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
