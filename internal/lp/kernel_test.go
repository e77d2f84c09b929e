package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// dense converts dense rows to Rows, keeping each row's nonzeros.
func dense(a [][]float64) Rows {
	var rows Rows
	for _, row := range a {
		var cols []int32
		var vals []float64
		for j, v := range row {
			if v != 0 {
				cols = append(cols, int32(j))
				vals = append(vals, v)
			}
		}
		rows.Add(cols, vals)
	}
	return rows
}

// densePivot is the reference elimination: it scales every cell of the
// pivot row and subtracts at every cell of each row with a nonzero
// entering-column entry.
func densePivot(rows [][]float64, leave, enter int) {
	prow := rows[leave]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1
	for i, row := range rows {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[enter] = 0
	}
}

// denseReduce is the reference cut-row reduction: it subtracts f times
// the basic row at every cell.
func denseReduce(row, prow []float64, f float64) {
	for j := range row {
		row[j] -= f * prow[j]
	}
}

// forestProgram is a random program of the cutting-plane loop's shape on a
// random graph: one 0/1 degree row per vertex, the whole-set row and 0/1
// subset rows (x(E[S]) ≤ |S|−1 for random vertex sets S), with two
// alternative degree caps for SetRHS.
type forestProgram struct {
	c          []float64
	base       [][]float64 // degree rows, then the whole-set row
	baseRHS    []float64
	tightRHS   []float64 // baseRHS with smaller degree caps
	cuts       [][]float64
	cutRHS     []float64
	vertices   int
	edgeCount  int
	cutBatches int
}

func randomForestProgram(rng *rand.Rand) forestProgram {
	nv := 6 + rng.Intn(10)
	type edge struct{ u, v int }
	var edges []edge
	for u := 0; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			if rng.Float64() < 0.45 {
				edges = append(edges, edge{u, v})
			}
		}
	}
	if len(edges) == 0 {
		edges = append(edges, edge{0, 1})
	}
	m := len(edges)
	p := forestProgram{vertices: nv, edgeCount: m, cutBatches: 1 + rng.Intn(3)}
	p.c = make([]float64, m)
	for j := range p.c {
		p.c[j] = 1
	}
	caps := make([]float64, nv)
	for v := 0; v < nv; v++ {
		row := make([]float64, m)
		for j, e := range edges {
			if e.u == v || e.v == v {
				row[j] = 1
			}
		}
		p.base = append(p.base, row)
		caps[v] = float64(1 + rng.Intn(4))
		p.baseRHS = append(p.baseRHS, caps[v])
		p.tightRHS = append(p.tightRHS, float64(rng.Intn(int(caps[v])+1)))
	}
	all := make([]float64, m)
	for j := range all {
		all[j] = 1
	}
	p.base = append(p.base, all)
	p.baseRHS = append(p.baseRHS, float64(nv-1))
	p.tightRHS = append(p.tightRHS, float64(nv-1))
	for k := 3 + rng.Intn(10); k > 0; k-- {
		in := make([]bool, nv)
		size := 0
		for v := range in {
			if rng.Intn(2) == 0 {
				in[v] = true
				size++
			}
		}
		if size < 2 {
			continue
		}
		row := make([]float64, m)
		for j, e := range edges {
			if in[e.u] && in[e.v] {
				row[j] = 1
			}
		}
		p.cuts = append(p.cuts, row)
		p.cutRHS = append(p.cutRHS, float64(size-1))
	}
	return p
}

// solveTrace runs one program through Maximize (cold, then warm-started on
// the base rows with every cut appended) and through a standing solver
// driven by AppendRows in batches and SetRHS down and back up, returning
// every Solution in order.
func solveTrace(t *testing.T, p forestProgram) []Solution {
	t.Helper()
	var out []Solution
	add := func(sol Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("solve %d: %v", len(out), err)
		}
		out = append(out, sol)
	}
	rows := append(append([][]float64(nil), p.base...), p.cuts...)
	rhs := append(append([]float64(nil), p.baseRHS...), p.cutRHS...)
	cold, err := Maximize(p.c, dense(p.base), p.baseRHS, Options{})
	add(cold, err)
	basis := append([]int(nil), cold.Basis...)
	for i := range p.cuts {
		basis = append(basis, len(p.c)+len(p.base)+i)
	}
	add(Maximize(p.c, dense(rows), rhs, Options{Basis: basis}))

	inc, err := NewIncremental(p.c, dense(p.base), p.baseRHS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	add(inc.SolveCtx(ctx))
	for b := 0; b < p.cutBatches; b++ {
		lo, hi := b*len(p.cuts)/p.cutBatches, (b+1)*len(p.cuts)/p.cutBatches
		if err := inc.AppendRows(dense(p.cuts[lo:hi]), p.cutRHS[lo:hi]); err != nil {
			t.Fatal(err)
		}
		add(inc.SolveCtx(ctx))
	}
	for _, base := range [][]float64{p.tightRHS, p.baseRHS} {
		if err := inc.SetRHS(append(append([]float64(nil), base...), p.cutRHS...)); err != nil {
			t.Fatal(err)
		}
		add(inc.SolveCtx(ctx))
	}
	// A fresh standing solver warm-started on the final basis.
	warm, err := NewIncremental(p.c, dense(rows), rhs, Options{Basis: inc.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	add(warm.SolveCtx(ctx))
	return out
}

// TestPivotMatchesDenseReference pins the sparse pivot and the sparse
// cut-row reduction of AppendRows to dense elimination: on random
// forest-shaped programs, Maximize and a standing solver driven through
// AppendRows and SetRHS return the same Value bits, X, Basis, Pivots and
// WarmPivots with either elimination. X is compared with ==: a skipped
// zero cell may carry the other zero sign.
func TestPivotMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pivots := 0
	for trial := 0; trial < 150; trial++ {
		p := randomForestProgram(rng)
		got := solveTrace(t, p)
		pivotRef, reduceRef = densePivot, denseReduce
		want := solveTrace(t, p)
		pivotRef, reduceRef = nil, nil
		for k := range want {
			g, w := got[k], want[k]
			pivots += g.Pivots + g.WarmPivots
			if g.Status != w.Status || math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
				!slices.Equal(g.X, w.X) || !slices.Equal(g.Basis, w.Basis) ||
				g.Pivots != w.Pivots || g.WarmPivots != w.WarmPivots ||
				g.WarmStarted != w.WarmStarted || g.Refactorizations != w.Refactorizations {
				t.Fatalf("trial %d (n=%d, m=%d) solve %d: sparse %+v\ndense %+v",
					trial, p.vertices, p.edgeCount, k, g, w)
			}
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivots across all trials: the programs exercise too little", pivots)
	}
}

// denseTableau is the reference tableau: every constraint row copied in
// full from a, its slack cell and rhs set, each row allocated on its own.
func denseTableau(c []float64, a [][]float64, b []float64) [][]float64 {
	m, n := len(b), len(c)
	rows := make([][]float64, m+1)
	for i := range rows {
		rows[i] = make([]float64, n+m+1)
	}
	for i := 0; i < m; i++ {
		copy(rows[i], a[i])
		rows[i][n+i] = 1
		rows[i][n+m] = b[i]
	}
	for j := 0; j < n; j++ {
		rows[m][j] = -c[j]
	}
	return rows
}

// sameCells reports whether two tableaux hold the same rows, width and
// bits.
func sameCells(got, want [][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestFillMatchesDense checks that a tableau built from Rows equals the
// dense fill cell for cell, also when its storage last held a larger
// program.
func TestFillMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tab := new(tableau)
	for trial := 0; trial < 100; trial++ {
		p := randomForestProgram(rng)
		a := append(append([][]float64(nil), p.base...), p.cuts...)
		b := append(append([]float64(nil), p.baseRHS...), p.cutRHS...)
		for _, k := range []int{len(a), len(p.base)} {
			rows := dense(a[:k])
			basis := tab.build(p.c, b[:k], &rows)
			if want := denseTableau(p.c, a[:k], b[:k]); !sameCells(tab.rows, want) {
				t.Fatalf("trial %d, %d rows: sparse fill %v\ndense fill %v", trial, k, tab.rows, want)
			}
			for i, bv := range basis {
				if bv != len(p.c)+i {
					t.Fatalf("trial %d: basis %v is not all-slack", trial, basis)
				}
			}
		}
	}
}

// appendGrow is the reference for grow: each row is widened by append and
// each new row allocated on its own.
func appendGrow(tab *tableau, k int) [][]float64 {
	oldW := len(tab.rows[0])
	newW := oldW + k
	for i, row := range tab.rows {
		row = append(row, make([]float64, k)...)
		row[newW-1], row[oldW-1] = row[oldW-1], 0
		tab.rows[i] = row
	}
	fresh := make([][]float64, k)
	for t := range fresh {
		fresh[t] = make([]float64, newW)
	}
	return fresh
}

// growTrace drives a standing solver through a long cutting-plane run on
// a 24-vertex forest program: 90 batches of up to 6 subset rows, a solve
// after each, and the degree caps moved up and back every 15 batches.
// It returns every Solution, the final cells and the final basis. A solve
// in numerical distress ends the run; its Solution is the last one.
func growTrace(t *testing.T, seed int64) ([]Solution, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nv = 24
	var edges [][2]int
	for u := 0; u < nv; u++ {
		for v := u + 1; v < nv; v++ {
			if rng.Float64() < 0.3 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	m := len(edges)
	c := make([]float64, m)
	for j := range c {
		c[j] = 1
	}
	set := func(in []bool) []int32 {
		var cols []int32
		for j, e := range edges {
			if in[e[0]] && in[e[1]] {
				cols = append(cols, int32(j))
			}
		}
		return cols
	}
	var rows Rows
	var base, loose []float64
	for v := 0; v < nv; v++ {
		var cols []int32
		for j, e := range edges {
			if e[0] == v || e[1] == v {
				cols = append(cols, int32(j))
			}
		}
		rows.Add(cols, nil)
		capV := float64(1 + rng.Intn(3))
		base = append(base, capV)
		loose = append(loose, capV+float64(rng.Intn(2)))
	}
	all := make([]bool, nv)
	for v := range all {
		all[v] = true
	}
	rows.Add(set(all), nil)
	base = append(base, nv-1)
	loose = append(loose, nv-1)

	inc, err := NewIncremental(c, rows, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []Solution
	solve := func() bool {
		t.Helper()
		sol, err := inc.SolveCtx(context.Background())
		if err != nil && !errors.Is(err, ErrNumericalDistress) {
			t.Fatalf("solve %d: %v", len(out), err)
		}
		out = append(out, sol)
		return err == nil
	}
	if !solve() {
		return out, inc.tab.rows, inc.basis
	}
	var cutRHS []float64
	for batch := 0; batch < 90; batch++ {
		var cuts Rows
		var rhs []float64
		for k := 1 + rng.Intn(6); k > 0; k-- {
			in := make([]bool, nv)
			size := 0
			for v := range in {
				if rng.Intn(3) == 0 {
					in[v] = true
					size++
				}
			}
			cuts.Add(set(in), nil)
			rhs = append(rhs, float64(max(size-1, 0)))
		}
		if err := inc.AppendRows(cuts, rhs); err != nil {
			t.Fatal(err)
		}
		cutRHS = append(cutRHS, rhs...)
		if !solve() {
			break
		}
		if batch%15 == 14 {
			for _, caps := range [][]float64{loose, base} {
				if err := inc.SetRHS(append(append([]float64(nil), caps...), cutRHS...)); err != nil {
					t.Fatal(err)
				}
				if !solve() {
					return out, inc.tab.rows, inc.basis
				}
			}
		}
	}
	return out, inc.tab.rows, inc.basis
}

// TestGrowMatchesAppendWidening checks that a standing solver whose
// tableau grows in place ends a long run of AppendRows and SetRHS calls
// with the cells, basis and pivot counts of one whose rows are widened by
// append, solve by solve.
func TestGrowMatchesAppendWidening(t *testing.T) {
	solves := 0
	for seed := int64(1); seed <= 12; seed++ {
		got, gotCells, gotBasis := growTrace(t, seed)
		solves += len(got)
		growRef = appendGrow
		want, wantCells, wantBasis := growTrace(t, seed)
		growRef = nil
		for k := range want {
			g, w := got[k], want[k]
			if g.Status != w.Status || math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
				!slices.Equal(g.X, w.X) || !slices.Equal(g.Basis, w.Basis) ||
				g.Pivots != w.Pivots || g.WarmPivots != w.WarmPivots || g.Refactorizations != w.Refactorizations {
				t.Fatalf("seed %d solve %d: in place %+v\nappend-widened %+v", seed, k, g, w)
			}
		}
		if len(got) != len(want) || !sameCells(gotCells, wantCells) || !slices.Equal(gotBasis, wantBasis) {
			t.Fatalf("seed %d: the final tableaux differ", seed)
		}
	}
	if solves < 500 {
		t.Fatalf("only %d solves across all seeds: the runs end too early", solves)
	}
	t.Logf("%d solves matched", solves)
}
