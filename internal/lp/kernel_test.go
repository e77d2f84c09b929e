package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

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
	cold, err := Maximize(p.c, p.base, p.baseRHS, Options{})
	add(cold, err)
	basis := append([]int(nil), cold.Basis...)
	for i := range p.cuts {
		basis = append(basis, len(p.c)+len(p.base)+i)
	}
	add(Maximize(p.c, rows, rhs, Options{Basis: basis}))

	inc, err := NewIncremental(p.c, p.base, p.baseRHS, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	add(inc.SolveCtx(ctx))
	for b := 0; b < p.cutBatches; b++ {
		lo, hi := b*len(p.cuts)/p.cutBatches, (b+1)*len(p.cuts)/p.cutBatches
		if err := inc.AppendRows(p.cuts[lo:hi], p.cutRHS[lo:hi]); err != nil {
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
	warm, err := NewIncremental(p.c, rows, rhs, Options{Basis: inc.Basis()})
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
