// Package experiments implements the reproduction suite. The underlying
// paper (PODS 2023) is theory-only — it has no empirical tables — so each
// experiment here validates one of its quantitative claims (theorems,
// lemmas, and the Section 1.1.4 graph-family analyses) and emits a table
// that names the claim it checks and carries its own notes. A table is a
// function of its Config alone: none reads a clock, and testdata pins the
// quick suite at seeds 1 and 7 byte for byte.
// cmd/experiments regenerates every table; bench_test.go wires each
// experiment to a benchmark.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E0..E15, F1..F3).
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement being validated.
	Claim string
	// Columns are the header names.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes are free-form trailing remarks (caveats, pass/fail verdicts).
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		b.WriteString("   ")
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Config scales the experiment suite.
type Config struct {
	// Quick shrinks sizes/trials so the whole suite runs in seconds (the
	// benchmark wiring uses Quick; cmd/experiments -full disables it).
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

// statistics helpers --------------------------------------------------------

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := q * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// mode returns the most frequent value of xs and how often it occurs. A
// tie goes to the smallest value, so the result does not depend on the
// order of xs.
func mode(xs []float64) (value float64, count int) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if j-i > count {
			value, count = sorted[i], j-i
		}
		i = j
	}
	return value, count
}

func maxFloat(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func absErr(a, b float64) float64 { return math.Abs(a - b) }
