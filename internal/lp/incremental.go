package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nodedp/internal/fault"
	"nodedp/internal/obs"
)

// ErrNumericalDistress is returned by Incremental.SolveCtx when the standing
// tableau can no longer be trusted: the dual repair exceeded its budget,
// the primal loop hit its pivot cap, or the solution failed the residual
// self-check — each after one refactorization retry. The caller is
// expected to discard the solver and fall back to a from-scratch solve
// (forestlp falls back to its rebuild+restore path); the distress signal
// costs a rebuild but never correctness.
var ErrNumericalDistress = errors.New("lp: incremental solver in numerical distress")

// certTol is the residual self-check tolerance: an optimal incremental
// solution must satisfy A·x ≤ b and x ≥ 0 against the ORIGINAL constraint
// data (not the accumulated tableau) within certTol, scaled by the rhs
// magnitude. The check is the cheap half of the certification story — the
// expensive half, exact big.Rat agreement, lives in the conformance tests —
// and it is what lets a drifted tableau announce itself instead of
// silently returning garbage.
const certTol = 1000 * tol

// Incremental is a live simplex solver over the same standard form as
// Maximize (max c·x, Ax ≤ b, x ≥ 0, b ≥ 0) that keeps its tableau and
// basis standing between calls, so that the mutations the cutting-plane
// loop and the Δ-grid sweep perform — appending rows, changing the rhs —
// cost a handful of eliminations instead of a rebuild:
//
//   - The slack block of the tableau is exactly B⁻¹ (every pivot restores
//     basic columns to exact unit vectors), so a changed rhs folds in as
//     tab[·][rhs] += B⁻¹·Δb read straight off the slack columns, and an
//     appended row Gauss-reduces against the current basis in one pass.
//   - After a mutation the basis stays dual-feasible (reduced costs do not
//     depend on the rhs; appended rows enter slack-basic with zero cost),
//     so SolveCtx repairs primal feasibility with dual simplex pivots and
//     then finishes with the shared primal loop — the Δ-step really is a
//     few pivots on the live object.
//
// Floating-point damage accumulates in a long-lived tableau, so SolveCtx
// certifies every optimum against the original data and refactorizes —
// rebuilds the tableau from the stored rows and re-pivots onto the current
// basis — when the check or a repair fails; a second failure surfaces as
// ErrNumericalDistress. The solver is not safe for concurrent use.
type Incremental struct {
	opts Options // MaxPivots only: NewIncremental consumes Basis

	n, m int       // structural columns, constraint rows
	c    []float64 // objective, length n
	rhs  []float64 // original rhs, length m

	// The original constraint rows, each stored once as its nonzeros in
	// ascending column order: row i holds cols[start[i]:start[i+1]] with
	// coefficients vals[start[i]:start[i+1]]. The residual check and
	// refactorization read them; len(start) = m+1.
	start []int
	cols  []int32
	vals  []float64

	tab   *tableau // m constraint rows + objective row at index m; width n+m+1
	basis []int    // basis[i] = variable basic in row i

	// AppendRows' scratch: nzOf[i], once gathered in the current call,
	// lists old row i's nonzero columns, stored in nzBuf.
	nzOf  [][]int32
	nzBuf []int32

	// Warm-start bookkeeping from NewIncremental, folded into the first
	// solve's Solution so restoration work is accounted like Maximize's.
	pendingWarmPivots int
	pendingWarmStart  bool

	// poisoned makes every later solve return ErrNumericalDistress: set
	// when the solver gives up, or by the lp.incremental.distress
	// failpoint.
	poisoned bool
}

// NewIncremental builds a standing solver for max c·x s.t. Ax ≤ b, x ≥ 0.
// Every b[i] must be ≥ 0 (all-slack start feasible, no phase-one). Inputs
// are deep-copied. When opts.Basis is set it is restored exactly as
// Maximize would — the shared warm start, silently falling back to the
// all-slack start on rejection — and the restoration pivots are reported
// by the first solve as WarmPivots/WarmStarted.
func NewIncremental(c []float64, a [][]float64, b []float64, opts Options) (*Incremental, error) {
	if err := checkProblem(c, a, b); err != nil {
		return nil, err
	}
	if err := checkEntries(a); err != nil {
		return nil, err
	}
	inc := &Incremental{opts: Options{MaxPivots: opts.MaxPivots}, n: len(c), m: len(a), start: []int{0}}
	inc.c = append([]float64(nil), c...)
	for _, row := range a {
		inc.storeRow(row)
	}
	inc.rhs = append([]float64(nil), b...)
	inc.tab, inc.basis, inc.pendingWarmPivots, inc.pendingWarmStart = startTableau(inc.c, inc.rhs, inc.fillRow, opts.Basis)
	return inc, nil
}

// storeRow appends an original constraint row's nonzeros to the stored
// rows.
func (inc *Incremental) storeRow(row []float64) {
	for j, v := range row {
		if v != 0 {
			inc.cols = append(inc.cols, int32(j))
			inc.vals = append(inc.vals, v)
		}
	}
	inc.start = append(inc.start, len(inc.cols))
}

// fillRow writes stored row i into a zeroed tableau row (newTableau's
// fill).
func (inc *Incremental) fillRow(i int, row []float64) {
	for k := inc.start[i]; k < inc.start[i+1]; k++ {
		row[inc.cols[k]] = inc.vals[k]
	}
}

// Rows returns the current number of constraint rows.
func (inc *Incremental) Rows() int { return inc.m }

// Cols returns the current number of structural columns.
func (inc *Incremental) Cols() int { return inc.n }

// Basis returns a copy of the current basis in Solution.Basis form.
func (inc *Incremental) Basis() []int { return append([]int(nil), inc.basis...) }

// SetRHS replaces the right-hand side (the Δ-grid step: degree caps move,
// structure stays). Each new b[j] must be ≥ 0 and finite. The update folds
// the change through B⁻¹ via the slack block — O(rows × changed entries) —
// and leaves the basis alone; the next solve dual-repairs whatever primal
// infeasibility the tighter rhs introduced.
func (inc *Incremental) SetRHS(b []float64) error {
	if len(b) != inc.m {
		return fmt.Errorf("%w: %d rhs entries for %d rows", ErrBadInput, len(b), inc.m)
	}
	if err := checkRHS(b); err != nil {
		return err
	}
	n, m := inc.n, inc.m
	rhsCol := n + m
	for j := 0; j < m; j++ {
		db := b[j] - inc.rhs[j]
		if db == 0 {
			continue
		}
		for _, row := range inc.tab.rows {
			if s := row[n+j]; s != 0 {
				row[rhsCol] += s * db
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
// next solve. The objective row needs no update (slacks cost zero).
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
	}
	if err := checkEntries(a); err != nil {
		return err
	}
	if err := checkRHS(b); err != nil {
		return err
	}

	n, oldM := inc.n, inc.m
	newM := oldM + k
	oldW := n + oldM + 1
	newW := n + newM + 1

	// Widen every existing row: k fresh (zero) slack columns slide in
	// before the rhs cell.
	rows := inc.tab.rows
	for i := 0; i <= oldM; i++ {
		row := append(rows[i], make([]float64, k)...)
		row[newW-1], row[oldW-1] = row[oldW-1], 0
		rows[i] = row
	}
	obj := rows[oldM]

	// The new rows take the objective row's slot onward; it moves last.
	rows = rows[:oldM]
	inc.nzOf = append(inc.nzOf[:0], make([][]int32, oldM)...)
	inc.nzBuf = inc.nzBuf[:0]
	for t := 0; t < k; t++ {
		row := make([]float64, newW)
		copy(row, a[t])
		row[n+oldM+t] = 1
		row[newW-1] = b[t]
		// Reduce against the standing basis: each basic column is an exact
		// unit vector, so one subtraction per basic variable eliminates it.
		// Basic rows are visited in basis order and only at their nonzero
		// cells: subtracting a zero product changes no value (at most the
		// sign of a zero), so every nonzero keeps its dense-reduction bits.
		for i := 0; i < oldM; i++ {
			f := row[inc.basis[i]]
			if f == 0 {
				continue
			}
			prow := rows[i]
			if reduceRef != nil {
				reduceRef(row, prow, f)
			} else {
				for _, j := range inc.rowNonzeros(i, prow) {
					row[j] -= f * prow[j]
				}
			}
			row[inc.basis[i]] = 0 // avoid drift
		}
		rows = append(rows, row)
		inc.storeRow(a[t])
		inc.rhs = append(inc.rhs, b[t])
		inc.basis = append(inc.basis, n+oldM+t)
	}
	inc.tab.rows = append(rows, obj)
	inc.m = newM
	return nil
}

// rowNonzeros returns the nonzero columns of old row i (prow), gathering
// them on the first call of an AppendRows call. The old rows do not change
// while the new ones are reduced, and cuts that share edges reduce against
// the same basic rows, so each row is scanned once per call. A basic row's
// unit cell keeps every gathered list nonempty.
func (inc *Incremental) rowNonzeros(i int, prow []float64) []int32 {
	if nz := inc.nzOf[i]; nz != nil {
		return nz
	}
	lo := len(inc.nzBuf)
	for j, p := range prow {
		if p != 0 {
			inc.nzBuf = append(inc.nzBuf, int32(j))
		}
	}
	inc.nzOf[i] = inc.nzBuf[lo:]
	return inc.nzOf[i]
}

// reduceRef, when set, replaces AppendRows' reduction of a new row by one
// basic row (row -= f·prow): the kernel equivalence tests install a dense
// reference there, as they do for pivot through pivotRef. Production code
// never sets it.
var reduceRef func(row, prow []float64, f float64)

// refactorize rebuilds the tableau from the stored original rows and
// warm-starts it on the current basis set, discarding whatever rounding
// error the standing tableau accumulated. If the basis set no longer
// restores, it falls back to the pristine all-slack start — legal here
// because every stored rhs is ≥ 0, so all-slack is primal-feasible and
// the next primal loop simply solves cold. A restored basis that the dual
// repair cannot make feasible returns ok=false: the solver is in
// distress. pivots counts the work either way.
func (inc *Incremental) refactorize() (pivots int, ok bool) {
	want := inc.basis
	inc.tab, inc.basis = newTableau(inc.c, inc.rhs, inc.fillRow)
	pivots, restored, repaired := warmStart(inc.tab, inc.basis, want, inc.n, inc.m)
	if !restored {
		inc.tab, inc.basis = newTableau(inc.c, inc.rhs, inc.fillRow)
		return pivots, true
	}
	return pivots, repaired
}

// residualOK checks the claimed optimum against the ORIGINAL constraint
// data — not the tableau, which is exactly what we no longer trust. Each
// row's sum runs over its stored nonzeros in ascending column order.
func (inc *Incremental) residualOK(x []float64) bool {
	for _, xj := range x {
		if xj < -certTol {
			return false
		}
	}
	for i, rhs := range inc.rhs {
		s := 0.0
		for k := inc.start[i]; k < inc.start[i+1]; k++ {
			s += inc.vals[k] * x[inc.cols[k]]
		}
		if s > rhs+certTol*(1+math.Abs(rhs)) {
			return false
		}
	}
	return true
}

// SolveCtx re-optimizes the standing tableau: dual repair first (clamping
// rhs noise and fixing whatever primal infeasibility mutations introduced),
// then the shared primal loop, then the residual self-check. Any failure
// triggers one refactorization retry; failing again returns
// ErrNumericalDistress and poisons the solver. Restoration work from
// NewIncremental's warm start is folded into the first call's
// WarmPivots/WarmStarted, mirroring Maximize's accounting.
//
// Cancellation mirrors MaximizeCtx: the shared pivot loop polls ctx at
// checkpoints and aborts with ctx.Err(). An aborted solve leaves the
// tableau at the last completed pivot — consistent and NOT poisoned, so a
// later SolveCtx may resume — but callers on the release path treat a
// context error as fatal for the whole evaluation anyway.
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
	maxPivots := inc.opts.pivotLimit(inc.m, inc.n)
	retried := false
	refactorAndRetry := func() bool {
		// Injected refactorization failure: the retry is abandoned as if
		// the rebuilt basis had failed again, so the solve poisons and
		// returns ErrNumericalDistress below.
		if fault.Hit("lp.incremental.refactor") != nil {
			retried = true
			return false
		}
		pivots, ok := inc.refactorize()
		sol.WarmPivots += pivots
		sol.Refactorizations++
		retried = true
		return ok
	}
	for {
		d, ok := dualRepair(inc.tab, inc.basis, inc.n, inc.m)
		sol.WarmPivots += d
		if !ok {
			if retried || !refactorAndRetry() {
				break
			}
			continue
		}

		status, pivots, err := primalIterate(ctx, inc.tab, inc.basis, inc.n, inc.m, maxPivots)
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
		if !inc.residualOK(x) {
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
