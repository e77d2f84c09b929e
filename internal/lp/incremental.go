package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nodedp/internal/fault"
	"nodedp/internal/obs"
)

// ErrNumericalDistress is returned by Incremental.Solve when the standing
// tableau can no longer be trusted: the dual repair exceeded its budget,
// the primal loop hit its pivot cap, or the solution failed the residual
// self-check — each after one refactorization retry. The caller is
// expected to discard the solver and fall back to a from-scratch solve
// (forestlp falls back to its rebuild+restore path); the distress signal
// costs a rebuild but never correctness.
var ErrNumericalDistress = errors.New("lp: incremental solver in numerical distress")

// certResidualTol is the floor of the residual self-check tolerance: an
// optimal incremental solution must satisfy A·x ≤ b and x ≥ 0 against the
// ORIGINAL constraint data (not the accumulated tableau) within
// max(certResidualTol, 1000·Tol), scaled by the rhs magnitude. The check
// is the cheap half of the certification story — the expensive half, exact
// big.Rat agreement, lives in the conformance tests — and it is what lets
// a drifted tableau announce itself instead of silently returning garbage.
const certResidualTol = 1e-6

// Incremental is a live simplex solver over the same standard form as
// Maximize (max c·x, Ax ≤ b, x ≥ 0, b ≥ 0) that keeps its tableau and
// basis standing between calls, so that the mutations the cutting-plane
// loop and the Δ-grid sweep perform — appending rows, appending columns,
// changing the rhs — cost a handful of eliminations instead of a rebuild:
//
//   - The slack block of the tableau is exactly B⁻¹ (every pivot restores
//     basic columns to exact unit vectors), so a changed rhs folds in as
//     tab[·][rhs] += B⁻¹·Δb read straight off the slack columns, an
//     appended row Gauss-reduces against the current basis in one pass,
//     and an appended column materializes as B⁻¹·a.
//   - After a mutation the basis stays dual-feasible (reduced costs do not
//     depend on the rhs; appended rows enter slack-basic with zero cost),
//     so Solve repairs primal feasibility with dual simplex pivots and
//     then finishes with the shared primal loop — the Δ-step really is a
//     few pivots on the live object.
//
// Floating-point damage accumulates in a long-lived tableau, so Solve
// certifies every optimum against the original data and refactorizes —
// rebuilds the tableau from the stored rows and re-pivots onto the current
// basis — when the check or a repair fails; a second failure surfaces as
// ErrNumericalDistress. The solver is not safe for concurrent use.
type Incremental struct {
	opts Options

	n, m int         // structural columns, constraint rows
	c    []float64   // objective, length n
	rows [][]float64 // original constraint rows (structural coords), length m
	rhs  []float64   // original rhs, length m

	tab   [][]float64 // m constraint rows + objective row at index m; width n+m+1
	basis []int       // basis[i] = variable basic in row i

	// Warm-start bookkeeping from NewIncremental, folded into the first
	// Solve's Solution so restoration work is accounted like Maximize's.
	pendingWarmPivots int
	pendingWarmStart  bool

	refactorizations int
	poisoned         bool
}

func checkProblem(c []float64, a [][]float64, b []float64) error {
	m, n := len(a), len(c)
	if len(b) != m {
		return fmt.Errorf("%w: %d rows but %d rhs entries", ErrBadInput, m, len(b))
	}
	for i, row := range a {
		if len(row) != n {
			return fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadInput, i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: a[%d][%d]=%v", ErrBadInput, i, j, v)
			}
		}
	}
	for i, bi := range b {
		if bi < 0 {
			return fmt.Errorf("%w: b[%d]=%v < 0 (standard-form solver needs b ≥ 0)", ErrBadInput, i, bi)
		}
		if math.IsNaN(bi) || math.IsInf(bi, 0) {
			return fmt.Errorf("%w: b[%d]=%v", ErrBadInput, i, bi)
		}
	}
	for j, cj := range c {
		if math.IsNaN(cj) || math.IsInf(cj, 0) {
			return fmt.Errorf("%w: c[%d]=%v", ErrBadInput, j, cj)
		}
	}
	return nil
}

// NewIncremental builds a standing solver for max c·x s.t. Ax ≤ b, x ≥ 0.
// Every b[i] must be ≥ 0 (all-slack start feasible, no phase-one). Inputs
// are deep-copied. When opts.Basis is set it is restored exactly as
// Maximize would — direct elimination plus dual repair, silently falling
// back to the all-slack start on rejection — and the restoration pivots
// are reported by the first Solve as WarmPivots/WarmStarted.
func NewIncremental(c []float64, a [][]float64, b []float64, opts Options) (*Incremental, error) {
	if err := checkProblem(c, a, b); err != nil {
		return nil, err
	}
	inc := &Incremental{opts: opts, n: len(c), m: len(a)}
	inc.opts.Basis = nil
	inc.c = append([]float64(nil), c...)
	inc.rows = make([][]float64, len(a))
	for i := range a {
		inc.rows[i] = append([]float64(nil), a[i]...)
	}
	inc.rhs = append([]float64(nil), b...)
	inc.build()

	if opts.Basis != nil {
		o := inc.opts.withDefaults(inc.m, inc.n)
		ok, restored := restoreBasis(inc.tab, inc.basis, opts.Basis, inc.n, inc.m, o.Tol)
		inc.pendingWarmPivots = restored
		if ok {
			dual, repaired := dualRepair(inc.tab, inc.basis, inc.n, inc.m, o)
			inc.pendingWarmPivots += dual
			ok = repaired
		}
		inc.pendingWarmStart = ok
		if !ok {
			inc.build()
		}
	}
	return inc, nil
}

// build (re)constructs the tableau from the stored rows with an all-slack
// basis. Same layout as Maximize: columns [0,n) structural, [n,n+m) slack,
// n+m rhs; row m is the objective row.
func (inc *Incremental) build() {
	n, m := inc.n, inc.m
	width := n + m + 1
	tab := make([][]float64, m+1)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, width)
		copy(tab[i], inc.rows[i])
		tab[i][n+i] = 1
		tab[i][n+m] = inc.rhs[i]
	}
	obj := make([]float64, width)
	for j := 0; j < n; j++ {
		obj[j] = -inc.c[j]
	}
	tab[m] = obj
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}
	inc.tab, inc.basis = tab, basis
}

// Rows returns the current number of constraint rows.
func (inc *Incremental) Rows() int { return inc.m }

// Cols returns the current number of structural columns.
func (inc *Incremental) Cols() int { return inc.n }

// Basis returns a copy of the current basis in Solution.Basis form.
func (inc *Incremental) Basis() []int { return append([]int(nil), inc.basis...) }

// Refactorizations returns the lifetime count of tableau rebuilds the
// solver performed to recover from numerical damage.
func (inc *Incremental) Refactorizations() int { return inc.refactorizations }

// Poison marks the solver as numerically untrustworthy: every subsequent
// Solve returns ErrNumericalDistress. It exists so tests (and operators
// chasing a misbehaving run) can exercise the fallback path on demand —
// organic distress needs pathological conditioning that refactorization
// usually heals, which makes it a poor test fixture.
func (inc *Incremental) Poison() { inc.poisoned = true }

// SetRHS replaces the right-hand side (the Δ-grid step: degree caps move,
// structure stays). Each new b[j] must be ≥ 0 and finite. The update folds
// the change through B⁻¹ via the slack block — O(rows × changed entries) —
// and leaves the basis alone; the next Solve dual-repairs whatever primal
// infeasibility the tighter rhs introduced.
func (inc *Incremental) SetRHS(b []float64) error {
	if len(b) != inc.m {
		return fmt.Errorf("%w: %d rhs entries for %d rows", ErrBadInput, len(b), inc.m)
	}
	for i, bi := range b {
		if bi < 0 {
			return fmt.Errorf("%w: b[%d]=%v < 0 (standard-form solver needs b ≥ 0)", ErrBadInput, i, bi)
		}
		if math.IsNaN(bi) || math.IsInf(bi, 0) {
			return fmt.Errorf("%w: b[%d]=%v", ErrBadInput, i, bi)
		}
	}
	n, m := inc.n, inc.m
	rhsCol := n + m
	for j := 0; j < m; j++ {
		db := b[j] - inc.rhs[j]
		if db == 0 {
			continue
		}
		for i := 0; i <= m; i++ {
			if s := inc.tab[i][n+j]; s != 0 {
				inc.tab[i][rhsCol] += s * db
			}
		}
		inc.rhs[j] = b[j]
	}
	return nil
}

// AppendRows appends constraint rows (the cutting-plane step). Each row is
// given in structural coordinates with rhs b[t] ≥ 0. New rows enter the
// basis on their own slack and are Gauss-reduced against the current basis
// in one pass — exact single eliminations, because basic columns are exact
// unit vectors — which may leave their reduced rhs negative when the
// current optimum violates the cut; that is the dual repair's job at the
// next Solve. The objective row needs no update (slacks cost zero).
//
// The tableau grows in place: every row, new ones included, is widened by
// appending its zero slack cells before the rhs cell, so a long
// cutting-plane run reallocates each row O(log rows) times (append's
// geometric capacity growth) instead of once per call. The arithmetic is
// the same either way.
func (inc *Incremental) AppendRows(a [][]float64, b []float64) error {
	k := len(a)
	if len(b) != k {
		return fmt.Errorf("%w: %d appended rows but %d rhs entries", ErrBadInput, k, len(b))
	}
	if k == 0 {
		return nil
	}
	for t, row := range a {
		if len(row) != inc.n {
			return fmt.Errorf("%w: appended row %d has %d entries, want %d", ErrBadInput, t, len(row), inc.n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: appended a[%d][%d]=%v", ErrBadInput, t, j, v)
			}
		}
		if b[t] < 0 || math.IsNaN(b[t]) || math.IsInf(b[t], 0) {
			return fmt.Errorf("%w: appended b[%d]=%v", ErrBadInput, t, b[t])
		}
	}

	n, oldM := inc.n, inc.m
	newM := oldM + k
	oldW := n + oldM + 1
	newW := n + newM + 1

	// Widen every existing row: k fresh (zero) slack columns slide in
	// before the rhs cell.
	for i := 0; i <= oldM; i++ {
		row := append(inc.tab[i], make([]float64, k)...)
		row[newW-1], row[oldW-1] = row[oldW-1], 0
		inc.tab[i] = row
	}
	obj := inc.tab[oldM]

	// The new rows take the objective row's slot onward; it moves last.
	inc.tab = inc.tab[:oldM]
	for t := 0; t < k; t++ {
		row := make([]float64, newW)
		copy(row, a[t])
		row[n+oldM+t] = 1
		row[newW-1] = b[t]
		// Reduce against the standing basis: each basic column is an exact
		// unit vector, so one subtraction per basic variable eliminates it.
		for i := 0; i < oldM; i++ {
			f := row[inc.basis[i]]
			if f == 0 {
				continue
			}
			prow := inc.tab[i]
			for j := 0; j < newW; j++ {
				row[j] -= f * prow[j]
			}
			row[inc.basis[i]] = 0 // avoid drift
		}
		inc.tab = append(inc.tab, row)
		inc.rows = append(inc.rows, append([]float64(nil), a[t]...))
		inc.rhs = append(inc.rhs, b[t])
		inc.basis = append(inc.basis, n+oldM+t)
	}
	inc.tab = append(inc.tab, obj)
	inc.m = newM
	return nil
}

// AppendColumns appends structural columns (cols[t][i] = coefficient of
// the new variable in row i, objective coefficient c[t]). The tableau
// column is B⁻¹·a read off the slack block, and its reduced cost is
// y·a − c with the duals y sitting in the objective row's slack entries.
// The new variables enter nonbasic at zero, so the current point stays
// feasible; if a new reduced cost is negative the next Solve prices it in.
func (inc *Incremental) AppendColumns(cols [][]float64, c []float64) error {
	k := len(cols)
	if len(c) != k {
		return fmt.Errorf("%w: %d appended columns but %d objective entries", ErrBadInput, k, len(c))
	}
	if k == 0 {
		return nil
	}
	for t, col := range cols {
		if len(col) != inc.m {
			return fmt.Errorf("%w: appended column %d has %d entries, want %d", ErrBadInput, t, len(col), inc.m)
		}
		for i, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: appended col[%d][%d]=%v", ErrBadInput, t, i, v)
			}
		}
		if math.IsNaN(c[t]) || math.IsInf(c[t], 0) {
			return fmt.Errorf("%w: appended c[%d]=%v", ErrBadInput, t, c[t])
		}
	}

	n, m := inc.n, inc.m
	// Materialize each new tableau column as B⁻¹·a (constraint rows) and
	// y·a − c (objective row) before touching the layout.
	tcols := make([][]float64, k)
	for t := 0; t < k; t++ {
		tc := make([]float64, m+1)
		for i := 0; i <= m; i++ {
			row := inc.tab[i]
			s := 0.0
			for j := 0; j < m; j++ {
				if aj := cols[t][j]; aj != 0 {
					s += row[n+j] * aj
				}
			}
			tc[i] = s
		}
		tc[m] -= c[t]
		tcols[t] = tc
	}

	newW := n + k + m + 1
	for i := 0; i <= m; i++ {
		row := inc.tab[i]
		wide := make([]float64, newW)
		copy(wide, row[:n])
		for t := 0; t < k; t++ {
			wide[n+t] = tcols[t][i]
		}
		copy(wide[n+k:], row[n:])
		inc.tab[i] = wide
	}
	for i, bv := range inc.basis {
		if bv >= n {
			inc.basis[i] = bv + k
		}
	}
	for i := range inc.rows {
		ext := make([]float64, n+k)
		copy(ext, inc.rows[i])
		for t := 0; t < k; t++ {
			ext[n+t] = cols[t][i]
		}
		inc.rows[i] = ext
	}
	inc.c = append(inc.c, c...)
	inc.n = n + k
	return nil
}

// refactorize rebuilds the tableau from the stored original rows and
// re-pivots onto the current basis set, discarding whatever rounding error
// the standing tableau accumulated. If the basis set no longer factorizes
// it falls back to the pristine all-slack start — legal here because every
// stored rhs is ≥ 0, so all-slack is primal-feasible and the subsequent
// primal loop simply solves cold. Returns the elimination pivots spent.
func (inc *Incremental) refactorize(opts Options) int {
	inc.refactorizations++
	want := append([]int(nil), inc.basis...)
	inc.build()
	ok, restored := restoreBasis(inc.tab, inc.basis, want, inc.n, inc.m, opts.Tol)
	if !ok {
		inc.build()
	}
	return restored
}

// residualOK checks the claimed optimum against the ORIGINAL constraint
// data — not the tableau, which is exactly what we no longer trust.
func (inc *Incremental) residualOK(x []float64, tol float64) bool {
	for _, xj := range x {
		if xj < -tol {
			return false
		}
	}
	for i, row := range inc.rows {
		s := 0.0
		for j, v := range row {
			if v != 0 {
				s += v * x[j]
			}
		}
		if s > inc.rhs[i]+tol*(1+math.Abs(inc.rhs[i])) {
			return false
		}
	}
	return true
}

// Solve re-optimizes the standing tableau: dual repair first (clamping
// rhs noise and fixing whatever primal infeasibility mutations introduced),
// then the shared primal loop, then the residual self-check. Any failure
// triggers one refactorization retry; failing again returns
// ErrNumericalDistress and poisons the solver. Restoration work from
// NewIncremental's warm start is folded into the first call's
// WarmPivots/WarmStarted, mirroring Maximize's accounting.
func (inc *Incremental) Solve() (Solution, error) {
	return inc.SolveCtx(context.Background())
}

// SolveCtx is Solve with cooperative cancellation, mirroring MaximizeCtx:
// the shared pivot loop polls ctx at checkpoints and aborts with ctx.Err().
// An aborted solve leaves the tableau at the last completed pivot —
// consistent and NOT poisoned, so a later SolveCtx may resume — but
// callers on the release path treat a context error as fatal for the
// whole evaluation anyway.
//
// Like MaximizeCtx, a trace span on the context accumulates the solve's
// lp_solves/lp_pivots/lp_warm_pivots counter attributes.
func (inc *Incremental) SolveCtx(ctx context.Context) (Solution, error) {
	sol, err := inc.solveCtx(ctx)
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.AddCounter("lp_solves", 1)
		sp.AddCounter("lp_pivots", int64(sol.Pivots))
		sp.AddCounter("lp_warm_pivots", int64(sol.WarmPivots))
	}
	return sol, err
}

func (inc *Incremental) solveCtx(ctx context.Context) (Solution, error) {
	sol := Solution{WarmPivots: inc.pendingWarmPivots, WarmStarted: inc.pendingWarmStart}
	inc.pendingWarmPivots, inc.pendingWarmStart = 0, false
	if inc.poisoned {
		return sol, ErrNumericalDistress
	}
	// Injected numerical distress: poisons the solver and reports
	// ErrNumericalDistress exactly like a failed residual check, driving
	// the caller's certified fallback to the rebuild path (which the PR 6
	// conformance suite proves bit-identical).
	if fault.Hit("lp.incremental.distress") != nil {
		inc.poisoned = true
		return sol, ErrNumericalDistress
	}
	opts := inc.opts.withDefaults(inc.m, inc.n)
	retried := false
	refactorAndRetry := func() bool {
		// Injected refactorization failure: the retry is abandoned as if
		// the rebuilt basis had failed again, so Solve poisons and returns
		// ErrNumericalDistress below.
		if fault.Hit("lp.incremental.refactor") != nil {
			retried = true
			return false
		}
		sol.WarmPivots += inc.refactorize(opts)
		sol.Refactorizations++
		retried = true
		return true
	}
	for {
		d, ok := dualRepair(inc.tab, inc.basis, inc.n, inc.m, opts)
		sol.WarmPivots += d
		if !ok {
			if retried || !refactorAndRetry() {
				break
			}
			continue
		}

		status, pivots, err := primalIterate(ctx, inc.tab, inc.basis, inc.n, inc.m, opts)
		sol.Pivots += pivots
		if err != nil {
			return sol, err
		}
		if status == Unbounded {
			sol.Status = Unbounded
			sol.Value = math.Inf(1)
			sol.X = extractX(inc.tab, inc.basis, inc.n, inc.m)
			sol.Basis = inc.Basis()
			return sol, nil
		}
		if status != Optimal {
			if retried || !refactorAndRetry() {
				break
			}
			continue
		}

		x := extractX(inc.tab, inc.basis, inc.n, inc.m)
		certTol := certResidualTol
		if t := 1000 * opts.Tol; t > certTol {
			certTol = t
		}
		if !inc.residualOK(x, certTol) {
			if retried || !refactorAndRetry() {
				break
			}
			continue
		}

		sol.Status = Optimal
		sol.X = x
		sol.Value = 0
		for j := 0; j < inc.n; j++ {
			sol.Value += inc.c[j] * x[j]
		}
		sol.Basis = inc.Basis()
		return sol, nil
	}
	inc.poisoned = true
	return sol, ErrNumericalDistress
}
