package lp

import (
	"fmt"
	"math"
)

// Rows holds constraint rows as their nonzero coefficients, each row's
// columns in strictly ascending order. It is the one form Maximize,
// NewIncremental and AppendRows take constraints in, and the form an
// Incremental keeps its original rows in. The zero value holds no rows.
type Rows struct {
	// Row i has coefficient vals[k] at column cols[k] for k in
	// [start[i], start[i+1]); start is nil or holds one entry per row plus
	// the end.
	start []int
	cols  []int32
	vals  []float64
}

// Add appends a row with coefficient vals[k] at column cols[k]; a nil vals
// gives every listed column coefficient 1. Both slices are copied. The
// solver entry points reject a row whose columns are not strictly
// ascending and below the column count, or whose coefficients are not
// finite.
func (r *Rows) Add(cols []int32, vals []float64) {
	if vals != nil && len(vals) != len(cols) {
		panic(fmt.Sprintf("lp: Rows.Add with %d columns and %d coefficients", len(cols), len(vals)))
	}
	if r.start == nil {
		r.start = []int{0}
	}
	r.cols = append(r.cols, cols...)
	if vals == nil {
		for range cols {
			r.vals = append(r.vals, 1)
		}
	} else {
		r.vals = append(r.vals, vals...)
	}
	r.start = append(r.start, len(r.cols))
}

// Len returns the number of rows.
func (r *Rows) Len() int { return max(len(r.start)-1, 0) }

// Truncate keeps the first k rows and the storage of the rest, which rows
// added later reuse.
func (r *Rows) Truncate(k int) {
	if k >= r.Len() {
		return
	}
	end := r.start[k]
	r.start, r.cols, r.vals = r.start[:k+1], r.cols[:end], r.vals[:end]
}

// row returns row i's columns and coefficients.
func (r *Rows) row(i int) ([]int32, []float64) {
	lo, hi := r.start[i], r.start[i+1]
	return r.cols[lo:hi], r.vals[lo:hi]
}

// fill writes row i's coefficients into a zeroed tableau row.
func (r *Rows) fill(i int, row []float64) {
	cols, vals := r.row(i)
	for k, j := range cols {
		row[j] = vals[k]
	}
}

// clone returns a deep copy.
func (r *Rows) clone() Rows {
	return Rows{
		start: append([]int(nil), r.start...),
		cols:  append([]int32(nil), r.cols...),
		vals:  append([]float64(nil), r.vals...),
	}
}

// check validates every row against n structural columns in O(nonzeros):
// columns in [0, n) and strictly ascending, coefficients finite.
func (r *Rows) check(n int) error {
	for i := 0; i < r.Len(); i++ {
		cols, vals := r.row(i)
		prev := int32(-1)
		for k, j := range cols {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("%w: row %d column %d outside [0,%d)", ErrBadInput, i, j, n)
			}
			if j <= prev {
				return fmt.Errorf("%w: row %d lists column %d after %d", ErrBadInput, i, j, prev)
			}
			if v := vals[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: row %d column %d coefficient %v", ErrBadInput, i, j, v)
			}
			prev = j
		}
	}
	return nil
}
