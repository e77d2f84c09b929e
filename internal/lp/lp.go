// Package lp solves linear programs of the form
//
//	maximize    c·x
//	subject to  A x ≤ b,  x ≥ 0,  with b ≥ 0,
//
// which is exactly the shape of the degree-bounded forest polytope LP of
// Definition 3.1 once the subtour constraints are generated lazily by the
// cutting-plane loop in internal/forestlp. The restriction b ≥ 0 means the
// all-slack basis is feasible, so no phase-one is needed.
//
// Production runs one float64 tableau simplex (Dantzig pricing with a
// Bland's-rule fallback for anti-cycling) through two entry points that
// share its tableau set-up, basis warm start and pivot loop: Maximize
// solves one program, and Incremental keeps the tableau standing between
// solves so that appended cut rows and a moved rhs cost a few pivots
// instead of a rebuild. MaximizeRat is an exact big.Rat simplex (Bland's
// rule throughout) that tests use to certify the float results on small
// instances.
//
// Constraints arrive sparse, as Rows: each row's nonzero coefficients in
// ascending column order, which every entry point validates in
// O(nonzeros). The tableau is stored dense, and pricing and the ratio test
// scan it densely, but a pivot touches only nonzeros: it gathers the
// scaled pivot row's nonzero columns once and eliminates only the rows
// with a nonzero entering-column entry, at those columns. The forest
// programs are sparse (a pivot row averages 11 nonzeros in 137 columns,
// and the entering column 7 in 59 rows, over a cold plan of the
// end-to-end benchmark's graph), and a skipped cell could only have
// changed a zero's sign, so every comparison, basis and pivot count is the
// one dense elimination gives. Maximize solves on pooled tableau storage,
// so the rounds of a cutting-plane loop reuse one tableau's cells.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"nodedp/internal/obs"
)

// ctxCheckEvery is the cancellation-checkpoint stride of the pivot loops:
// primalIterate polls ctx.Err() once per this many pivots. Small enough
// that an aborted solve stops within microseconds, large enough that the
// poll never shows up in pivot-bound profiles.
const ctxCheckEvery = 64

// tol is the feasibility and optimality tolerance of the float simplex.
// It is typed, so constant expressions over it round as float64
// arithmetic would: 1000*tol is 1.0000000000000002e-06, not 1e-6.
const tol float64 = 1e-9

// blandAfter switches pricing from Dantzig to Bland's rule after this
// many consecutive non-improving (degenerate) pivots.
const blandAfter = 64

// Status describes the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Unbounded means the objective is unbounded above on the feasible
	// region.
	Unbounded
	// IterationLimit means the pivot budget was exhausted. The returned
	// solution is the best basic feasible point visited (feasible but not
	// proven optimal).
	IterationLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a solve: Maximize or Incremental.SolveCtx.
type Solution struct {
	Status Status
	// Value is c·X.
	Value float64
	// X is the structural variable assignment (length = len(c)).
	X []float64
	// Pivots is the number of simplex pivots performed.
	Pivots int
	// WarmPivots counts the Gauss–Jordan eliminations and dual-simplex
	// pivots spent before the primal iterations: restoring Options.Basis
	// (also when it is then rejected) and, on the standing solver,
	// repairing after a mutation or a refactorization. They cost the same
	// tableau work as simplex iterations, so honest accounting sums both.
	WarmPivots int
	// WarmStarted reports whether Options.Basis was accepted: restored to a
	// feasible basic point that the iterations then continued from.
	WarmStarted bool
	// Basis records the final basis (Basis[i] = the variable, structural
	// j < n or slack n+i', basic in row i). Feed it to a later solve of a
	// structurally identical program — same columns, same row layout,
	// possibly different rhs — via Options.Basis to skip re-pivoting from
	// the all-slack basis.
	Basis []int
	// Refactorizations counts rebuilds of the standing tableau performed
	// during this solve. Always 0 for Maximize; the Incremental solver
	// refactorizes when its live tableau accumulates numerical damage.
	Refactorizations int
}

// Options tunes a solve. The zero value is a cold solve under the default
// pivot budget.
type Options struct {
	// MaxPivots caps simplex iterations. Default 50*(rows+cols)+1000.
	MaxPivots int
	// Basis, when non-nil, is a starting basis from a previous Solution on
	// a structurally compatible program (one basic variable per row, same
	// columns; the rhs and appended rows may differ). The solver restores
	// it by direct elimination; a restored point that is primal-infeasible
	// but dual-feasible — the cutting-plane case, where newly added rows
	// are violated by the old optimum — is repaired by dual simplex
	// pivots before the primal iterations resume. If the basis is
	// singular, malformed, or beyond the dual repair, the solve silently
	// falls back to the all-slack start (the result is correct either
	// way — only the pivot count changes).
	Basis []int
}

// pivotLimit is MaxPivots, defaulted for a program of the given size.
func (o Options) pivotLimit(rows, cols int) int {
	if o.MaxPivots <= 0 {
		return 50*(rows+cols) + 1000
	}
	return o.MaxPivots
}

// ErrBadInput is wrapped by errors returned for malformed problems.
var ErrBadInput = errors.New("lp: bad input")

// Maximize solves max c·x s.t. Ax ≤ b, x ≥ 0. Every b[i] must be ≥ 0.
// It keeps no reference to its inputs.
func Maximize(c []float64, a Rows, b []float64, opts Options) (Solution, error) {
	return MaximizeCtx(context.Background(), c, a, b, opts)
}

// MaximizeCtx is Maximize with cooperative cancellation: the pivot loop
// checks ctx at checkpoints (every ctxCheckEvery pivots) and aborts with
// ctx.Err() once the context is done. The checkpoints perform no float
// arithmetic, so a solve that runs to completion walks a pivot trajectory
// bit-identical to Maximize — cancellation support cannot perturb
// released values.
//
// When the context carries a trace span (internal/obs), the solve
// accumulates lp_solves/lp_pivots/lp_warm_pivots counter attributes onto
// it — the pivot-loop boundary telemetry behind per-request solver
// attribution. Counters are deterministic sums; an un-instrumented
// context pays one value lookup.
func MaximizeCtx(ctx context.Context, c []float64, a Rows, b []float64, opts Options) (Solution, error) {
	sol, err := maximizeCtx(ctx, c, &a, b, opts)
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.AddCounter("lp_solves", 1)
		sp.AddCounter("lp_pivots", int64(sol.Pivots))
		sp.AddCounter("lp_warm_pivots", int64(sol.WarmPivots))
	}
	return sol, err
}

// tableaus holds the tableaux Maximize solves on: a solve takes one, lays
// its program out in the storage it already has, and returns it.
var tableaus = sync.Pool{New: func() any { return new(tableau) }}

func maximizeCtx(ctx context.Context, c []float64, a *Rows, b []float64, opts Options) (Solution, error) {
	if err := checkProblem(c, a, b); err != nil {
		return Solution{}, err
	}
	m, n := len(b), len(c)
	tab := tableaus.Get().(*tableau)
	defer tableaus.Put(tab)
	basis, warmPivots, warm := startTableau(tab, c, b, a, opts.Basis)
	sol := Solution{WarmPivots: warmPivots, WarmStarted: warm, Basis: basis}
	var err error
	sol.Status, sol.Pivots, err = primalIterate(ctx, tab, basis, n, m, opts.pivotLimit(m, n))
	if err != nil {
		return Solution{}, err
	}
	sol.X = extractX(tab, basis, n, m)
	if sol.Status == Unbounded {
		sol.Value = math.Inf(1)
		return sol, nil
	}
	for j := 0; j < n; j++ {
		sol.Value += c[j] * sol.X[j]
	}
	return sol, nil
}

// checkProblem validates a program: rows against the columns
// (Rows.check), rhs and objective, in O(nonzeros + rows + columns).
func checkProblem(c []float64, a *Rows, b []float64) error {
	if m := a.Len(); len(b) != m {
		return fmt.Errorf("%w: %d rows but %d rhs entries", ErrBadInput, m, len(b))
	}
	if err := a.check(len(c)); err != nil {
		return err
	}
	if err := checkRHS(b); err != nil {
		return err
	}
	for j, cj := range c {
		if math.IsNaN(cj) || math.IsInf(cj, 0) {
			return fmt.Errorf("%w: c[%d]=%v", ErrBadInput, j, cj)
		}
	}
	return nil
}

// checkRHS requires every rhs entry to be finite and ≥ 0.
func checkRHS(b []float64) error {
	for i, bi := range b {
		if bi < 0 {
			return fmt.Errorf("%w: b[%d]=%v < 0 (standard-form solver needs b ≥ 0)", ErrBadInput, i, bi)
		}
		if math.IsNaN(bi) || math.IsInf(bi, 0) {
			return fmt.Errorf("%w: b[%d]=%v", ErrBadInput, i, bi)
		}
	}
	return nil
}

// tableau is the dense simplex tableau of max c·x s.t. Ax ≤ b, x ≥ 0.
// Rows 0..m-1 are the constraints over columns [0,n) structural, [n,n+m)
// slack and n+m the rhs; row m is the objective row, holding the reduced
// costs (z_j − c_j) and, in its rhs cell, the current objective value.
type tableau struct {
	rows [][]float64
	// nz is pivot's scratch: the nonzero columns of the scaled pivot row.
	// It lives as long as the tableau, so pivots allocate nothing.
	nz []int
	// cells is the storage build lays the rows out in, and reuses when it
	// rebuilds the tableau. Rows that grow adds may live elsewhere.
	cells []float64
}

// build lays out the all-slack tableau of max c·x s.t. Ax ≤ b, x ≥ 0 in
// tab's storage, each row exactly as wide as the tableau, and returns its
// basis (basis[i] = the variable basic in row i).
func (tab *tableau) build(c, b []float64, a *Rows) []int {
	m, n := len(b), len(c)
	width := n + m + 1
	need := (m + 1) * width
	tab.cells = slices.Grow(tab.cells[:0], need)[:need]
	clear(tab.cells)
	tab.rows = tab.rows[:0]
	for i := 0; i <= m; i++ {
		tab.rows = append(tab.rows, tab.cells[i*width:(i+1)*width:(i+1)*width])
	}
	for i := 0; i < m; i++ {
		row := tab.rows[i]
		a.fill(i, row)
		row[n+i] = 1
		row[n+m] = b[i]
	}
	obj := tab.rows[m]
	for j := 0; j < n; j++ {
		obj[j] = -c[j]
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}
	return basis
}

// startTableau builds the tableau of max c·x s.t. Ax ≤ b, x ≥ 0 in tab
// and, when want is non-nil, warm-starts it on that basis. A rejected
// basis leaves the all-slack start, which b ≥ 0 makes feasible: the result
// is correct either way, only the pivot count changes. It returns the
// basis, the warm-start pivots, counted even on rejection, and whether
// want was accepted.
func startTableau(tab *tableau, c, b []float64, a *Rows, want []int) (basis []int, pivots int, warm bool) {
	basis = tab.build(c, b, a)
	if want == nil {
		return basis, 0, false
	}
	pivots, restored, repaired := warmStart(tab, basis, want, len(c), len(b))
	if warm = restored && repaired; !warm {
		basis = tab.build(c, b, a)
	}
	return basis, pivots, warm
}

// warmStart moves a freshly built all-slack tableau onto the basis set
// want (restoreBasis) and then repairs, by dual simplex, the primal
// infeasibility the current rhs leaves there (dualRepair) — the
// cutting-plane case, where newly added rows are violated by the old
// optimum. The restored basis is dual-feasible by construction: the
// objective row is carried through the eliminations. pivots counts both
// steps, also on failure. restored=false means want is malformed or
// singular, repaired=false that the repair gave up; either way the
// tableau is unusable and the caller rebuilds it or gives up.
func warmStart(tab *tableau, basis, want []int, n, m int) (pivots int, restored, repaired bool) {
	restored, pivots = restoreBasis(tab, basis, want, n, m)
	if !restored {
		return pivots, false, false
	}
	d, repaired := dualRepair(tab, basis, n, m)
	return pivots + d, true, repaired
}

// primalIterate runs the primal simplex loop — Dantzig pricing with a
// Bland's-rule fallback after blandAfter consecutive degenerate pivots —
// on a primal-feasible tableau until optimality is proven, unboundedness
// is detected, or maxPivots pivots are spent. It is shared by Maximize and
// the Incremental solver so both walk bit-identical pivot trajectories:
// the determinism contract upstream (seeded releases identical across
// solver configurations) leans on the two paths performing the same float
// operations in the same order.
//
// Cancellation: every ctxCheckEvery pivots the loop polls ctx.Err() and
// returns it when the context is done. The poll touches no tableau state,
// so completed solves are bit-identical whether or not a deadline was
// attached.
func primalIterate(ctx context.Context, tab *tableau, basis []int, n, m, maxPivots int) (Status, int, error) {
	rows := tab.rows
	obj := rows[m]
	degenerate := 0
	lastValue := currentValue(obj, n, m)
	pivots := 0
	for ; pivots < maxPivots; pivots++ {
		if pivots%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return IterationLimit, pivots, err
			}
		}
		// Pricing: pick entering column.
		enter := -1
		if degenerate >= blandAfter {
			// Bland's rule: smallest index with negative reduced cost.
			for j := 0; j < n+m; j++ {
				if obj[j] < -tol {
					enter = j
					break
				}
			}
		} else {
			// Dantzig: most negative reduced cost.
			best := -tol
			for j := 0; j < n+m; j++ {
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			return Optimal, pivots, nil
		}

		// Ratio test: pick leaving row.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			aie := rows[i][enter]
			if aie <= tol {
				continue
			}
			ratio := rows[i][n+m] / aie
			if ratio < bestRatio-tol ||
				(ratio < bestRatio+tol && (leave == -1 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			return Unbounded, pivots, nil
		}

		tab.pivot(leave, enter)
		basis[leave] = enter

		cur := currentValue(obj, n, m)
		if cur <= lastValue+tol {
			degenerate++
		} else {
			degenerate = 0
		}
		lastValue = cur
	}
	return IterationLimit, pivots, nil
}

// dualRepair runs dual simplex pivots until every rhs is nonnegative. It
// is called on a restored warm basis, which is dual-feasible when the
// originating solve ended optimal (reduced costs depend on the basis and
// columns, not the rhs, and appended rows enter slack-basic with zero
// reduced cost); the only damage a changed rhs or appended violated rows
// can do is primal infeasibility, which is exactly what dual pivots fix —
// typically in a handful of iterations, against the hundreds a cold
// re-solve would spend. Returns ok=false when the repair exceeds its
// budget or a row proves locally unfixable; the caller then rebuilds cold,
// so a failed repair costs pivots but never correctness.
func dualRepair(tab *tableau, basis []int, n, m int) (pivots int, ok bool) {
	rows := tab.rows
	obj := rows[m]
	// Budget proportional to the damage: a healthy repair resolves each
	// infeasible row in O(1) pivots, so anything far beyond that is a
	// degenerate walk that would rival a cold solve — fail fast instead.
	neg := 0
	for i := 0; i < m; i++ {
		if rows[i][n+m] < -tol {
			neg++
		}
	}
	limit := 6*neg + 24
	for {
		// Leaving row: most negative rhs (ties to the smallest basic
		// variable, for determinism).
		leave := -1
		worst := -tol
		for i := 0; i < m; i++ {
			rhs := rows[i][n+m]
			//detlint:allow floatorder — bit-exact tie detection: rows whose rhs ties to the current worst must defer to the smallest-basic-variable rule for deterministic pivoting
			if rhs < worst || (leave != -1 && rhs == worst && basis[i] < basis[leave]) {
				worst = rhs
				leave = i
			}
		}
		if leave == -1 {
			for i := 0; i < m; i++ {
				if rows[i][n+m] < 0 {
					rows[i][n+m] = 0 // clamp tolerance-level noise
				}
			}
			return pivots, true
		}
		if pivots >= limit {
			return pivots, false
		}
		// Entering column: dual ratio test over the row's negative entries,
		// keeping the reduced costs nonnegative. Strict improvement with
		// an ascending scan means near-ties keep the smallest column
		// index — deterministic by construction.
		enter := -1
		best := math.Inf(1)
		for j := 0; j < n+m; j++ {
			aij := rows[leave][j]
			if aij >= -tol {
				continue
			}
			ratio := obj[j] / -aij
			if ratio < best-tol {
				best = ratio
				enter = j
			}
		}
		if enter == -1 {
			// No negative entry: the row is infeasible at any x ≥ 0. For
			// this package's programs (b ≥ 0, so x = 0 is feasible) this
			// can only be numerical damage — bail to the cold start.
			return pivots, false
		}
		tab.pivot(leave, enter)
		basis[leave] = enter
		pivots++
	}
}

// restoreBasis pivots the freshly built tableau from the all-slack basis
// onto the basis SET in `want`, returning whether the restoration
// succeeded and how many eliminations were performed (counted even on
// rejection — the work happened). Only the column set matters — a basic
// solution is determined by which variables are basic, not by which row
// the simplex happened to park them in — so the restoration is Gaussian
// elimination with partial row pivoting: each wanted column is eliminated
// on the unassigned row where it is largest, which succeeds whenever the
// set is numerically nonsingular, including the slack permutations a
// prescribed row-for-row crash would reject. The basis is rejected if it
// is malformed (wrong length, out-of-range or duplicate entries) or
// dependent. A restored basis may still be primal-infeasible under the
// current rhs — dualRepair handles that; restoration itself only
// guarantees that the objective row holds the basis's reduced costs and
// each wanted column is a unit vector.
func restoreBasis(tab *tableau, basis, want []int, n, m int) (bool, int) {
	rows := tab.rows
	if len(want) != m {
		return false, 0
	}
	taken := make([]bool, n+m)
	for _, bv := range want {
		if bv < 0 || bv >= n+m || taken[bv] {
			return false, 0
		}
		taken[bv] = true
	}
	assigned := make([]bool, m)
	pivots := 0
	for _, c := range want {
		r := -1
		best := tol
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			if a := math.Abs(rows[i][c]); a > best {
				best = a
				r = i
			}
		}
		if r == -1 {
			return false, pivots // dependent (or numerically so)
		}
		assigned[r] = true
		basis[r] = c
		// Skip the elimination when the column is already r's unit vector
		// (common for slacks no earlier pivot dirtied).
		unit := rows[r][c] == 1
		if unit {
			for i := 0; i <= m; i++ {
				if i != r && rows[i][c] != 0 {
					unit = false
					break
				}
			}
		}
		if !unit {
			tab.pivot(r, c)
			pivots++
		}
	}
	return true, pivots
}

// currentValue reads the objective value from the objective row rhs.
// With the z_j - c_j convention and max problems, the rhs of the objective
// row is the current objective value.
func currentValue(obj []float64, n, m int) float64 { return obj[n+m] }

// pivotRef, when set, replaces pivot's elimination: the kernel
// equivalence tests install a dense reference there to replay a solve's
// trajectory. Production code never sets it.
var pivotRef func(rows [][]float64, leave, enter int)

// pivot performs Gauss–Jordan elimination to make column enter the unit
// vector of row leave. It scales the pivot row's nonzero cells, gathers
// the columns still nonzero into tab.nz, and then eliminates only the rows
// whose entering-column entry is nonzero, and only at those columns. At a
// skipped cell dense elimination would scale a zero or subtract a zero
// product, which can flip the sign of a zero cell but changes no value, so
// no comparison the pivoting makes, and no basis, pivot count or
// solution, differs from eliminating every cell.
func (tab *tableau) pivot(leave, enter int) {
	if pivotRef != nil {
		pivotRef(tab.rows, leave, enter)
		return
	}
	prow := tab.rows[leave]
	inv := 1 / prow[enter]
	nz := tab.nz[:0]
	for j, v := range prow {
		if v == 0 {
			continue
		}
		v *= inv
		prow[j] = v
		if v != 0 {
			nz = append(nz, j)
		}
	}
	tab.nz = nz
	prow[enter] = 1 // avoid drift
	for i, row := range tab.rows {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // avoid drift
	}
}

// extractX reads the structural solution out of the tableau.
func extractX(tab *tableau, basis []int, n, m int) []float64 {
	x := make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			x[bv] = tab.rows[i][n+m]
			if x[bv] < 0 && x[bv] > -1e-12 {
				x[bv] = 0
			}
		}
	}
	return x
}
