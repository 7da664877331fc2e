package hashfam

import (
	"math"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

func allVars(n int) []cnf.Var {
	vs := make([]cnf.Var, n)
	for i := range vs {
		vs[i] = cnf.Var(i + 1)
	}
	return vs
}

func TestDrawShape(t *testing.T) {
	rng := randx.New(1)
	h := Draw(rng, allVars(20), 5)
	if h.M() != 5 {
		t.Fatalf("M = %d, want 5", h.M())
	}
	for i := range h.Rows {
		for _, v := range h.RowVars(i) {
			if v < 1 || v > 20 {
				t.Fatalf("row var %d out of range", v)
			}
		}
	}
}

// TestDrawPackedProperties checks the packed generator against the
// family's defining statistics: each variable joins each row
// independently with probability 1/2 (within 5σ per variable), no bits
// leak past the column space (the tail-mask regression for |vars| not a
// multiple of 64), and the popcount row lengths agree with the
// materialized rows and the AverageLen/TotalLen accounting.
func TestDrawPackedProperties(t *testing.T) {
	rng := randx.New(9)
	const n, rows = 67, 4000 // 67: exercises the tail mask
	vars := allVars(n)
	h := Draw(rng, vars, rows)

	counts := make([]int, n)
	total := 0
	for i := range h.Rows {
		rv := h.RowVars(i)
		if got := h.RowLen(i); got != len(rv) {
			t.Fatalf("row %d: popcount len %d != materialized len %d", i, got, len(rv))
		}
		total += len(rv)
		for _, v := range rv {
			if v < 1 || v > n {
				t.Fatalf("row %d: variable %d outside the column space", i, v)
			}
			counts[v-1]++
		}
		for w, b := range h.Rows[i].Bits {
			if w == len(h.Rows[i].Bits)-1 && b&^((1<<(n%64))-1) != 0 {
				t.Fatalf("row %d: bits set past column %d", i, n)
			}
		}
	}
	if h.TotalLen() != total {
		t.Fatalf("TotalLen = %d, want %d", h.TotalLen(), total)
	}
	if avg := h.AverageLen(); math.Abs(avg-float64(total)/rows) > 1e-9 {
		t.Fatalf("AverageLen = %v, want %v", avg, float64(total)/rows)
	}
	sigma := math.Sqrt(0.25 / rows)
	for v, c := range counts {
		freq := float64(c) / rows
		if math.Abs(freq-0.5) > 5*sigma {
			t.Fatalf("variable %d inclusion frequency %.4f, want 0.5 ± %.4f", v+1, freq, 5*sigma)
		}
	}
}

// TestDrawEmptyRow: with an empty variable list every row is the empty
// constraint; RHS stays random. Install-time handling of such rows is
// the bsat layer's job (see the session's fail-fast path).
func TestDrawEmptyRow(t *testing.T) {
	rng := randx.New(10)
	h := Draw(rng, nil, 8)
	for i := range h.Rows {
		if !h.Rows[i].Empty() || h.RowLen(i) != 0 {
			t.Fatalf("row %d not empty", i)
		}
	}
	if h.TotalLen() != 0 || h.AverageLen() != 0 {
		t.Fatal("empty hash length accounting wrong")
	}
}

func TestAverageLenHalfDensity(t *testing.T) {
	// With density 1/2 over n vars, average row length concentrates
	// around n/2 — the paper's "expected number of variables per
	// xor-clause is approximately |X|/2".
	rng := randx.New(2)
	n := 200
	h := Draw(rng, allVars(n), 400)
	avg := h.AverageLen()
	if math.Abs(avg-float64(n)/2) > 10 {
		t.Fatalf("avg xor len = %.1f, want ≈ %d", avg, n/2)
	}
}

// TestPairwiseIndependence verifies the statistical property UniGen's
// analysis rests on: for distinct y1, y2 and a random h from the family,
// Pr[h(y1)=α1 ∧ h(y2)=α2] = 2^{-2m}.
func TestPairwiseIndependence(t *testing.T) {
	const (
		n      = 6
		m      = 2
		trials = 40000
	)
	vars := allVars(n)
	rng := randx.New(4)
	y1 := cnf.NewAssignment(n)
	y2 := cnf.NewAssignment(n)
	y1.Set(1, true)
	y2.Set(2, true)
	y2.Set(3, true)

	hits := 0
	for i := 0; i < trials; i++ {
		h := Draw(rng, vars, m)
		// Target cell is folded into RHS, so "both in cell" means both
		// satisfy all rows.
		if h.Evaluate(y1) && h.Evaluate(y2) {
			hits++
		}
	}
	got := float64(hits) / trials
	want := math.Pow(2, -2*m) // 1/16
	// 5-sigma binomial tolerance.
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("joint cell probability %.5f, want %.5f ± %.5f", got, want, 5*sigma)
	}
}

// TestCellBalance verifies that a random hash splits the full cube
// evenly in expectation: each of 2^n points lands in the target cell
// with probability 2^-m.
func TestCellBalance(t *testing.T) {
	const (
		n      = 8
		m      = 3
		trials = 3000
	)
	vars := allVars(n)
	rng := randx.New(5)
	total := 0
	for i := 0; i < trials; i++ {
		h := Draw(rng, vars, m)
		for pt := 0; pt < 1<<n; pt++ {
			a := cnf.NewAssignment(n)
			for v := 1; v <= n; v++ {
				a[v] = pt&(1<<(v-1)) != 0
			}
			if h.Evaluate(a) {
				total++
			}
		}
	}
	got := float64(total) / float64(trials*(1<<n))
	want := math.Pow(2, -m)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("mean cell fraction %.4f, want %.4f", got, want)
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	f := cnf.New(5)
	f.AddClause(1, 2)
	rng := randx.New(6)
	h := Draw(rng, allVars(5), 3)
	g := h.Apply(f)
	if len(f.XORs) != 0 {
		t.Fatal("Apply mutated the input formula")
	}
	if len(g.XORs) > 3 {
		t.Fatalf("applied %d xors, want <= 3", len(g.XORs))
	}
}

// TestApplyConsistency: a point satisfies the applied XOR clauses iff
// Evaluate says it is in the cell.
func TestApplyConsistency(t *testing.T) {
	rng := randx.New(7)
	n := 7
	f := cnf.New(n)
	for iter := 0; iter < 200; iter++ {
		h := Draw(rng, allVars(n), 1+rng.Intn(4))
		g := h.Apply(f)
		pt := rng.Intn(1 << n)
		a := cnf.NewAssignment(n)
		for v := 1; v <= n; v++ {
			a[v] = pt&(1<<(v-1)) != 0
		}
		if a.Satisfies(g) != h.Evaluate(a) {
			t.Fatalf("iter %d: Apply and Evaluate disagree", iter)
		}
	}
}
