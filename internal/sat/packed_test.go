package sat

import (
	"maps"
	"slices"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// This file is the brute-force gate for the bit-packed XOR engine:
// randomized CNF+XOR systems, removable install/solve/release schedules
// and wide-row formulas whose rows span several 64-column words must
// give the model sets, verdicts and level-0 units brute force allows.

// enumerateAll collects the projections onto vars of every model of the
// solver, using blocking clauses over vars; every model must satisfy f
// and no projection may repeat.
func enumerateAll(t *testing.T, s *Solver, f *cnf.Formula, vars []cnf.Var) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for len(out) < 1<<uint(len(vars)) {
		switch s.Solve() {
		case Sat:
			m := s.Model()
			key := m.Project(vars)
			if !m.Satisfies(f) || out[key] {
				t.Fatal("enumeration found a non-model or a repeat")
			}
			out[key] = true
			block := make(cnf.Clause, 0, len(vars))
			for _, v := range vars {
				block = append(block, cnf.MkLit(v, m.Get(v)))
			}
			if !s.AddClause(block) {
				return out
			}
		case Unsat:
			return out
		default:
			t.Fatal("budget exhausted in enumeration")
		}
	}
	return out
}

func buildRandomXORCNF(rng *randx.RNG, n int) *cnf.Formula {
	f := cnf.New(n)
	nclauses := rng.Intn(2 * n)
	for i := 0; i < nclauses; i++ {
		width := 1 + rng.Intn(3)
		lits := make([]int, 0, width)
		for k := 0; k < width; k++ {
			v := 1 + rng.Intn(n)
			if rng.Bool() {
				v = -v
			}
			lits = append(lits, v)
		}
		f.AddClause(lits...)
	}
	nxors := 1 + rng.Intn(n)
	for i := 0; i < nxors; i++ {
		width := 1 + rng.Intn(n)
		vars := make([]cnf.Var, 0, width)
		for k := 0; k < width; k++ {
			vars = append(vars, cnf.Var(1+rng.Intn(n)))
		}
		f.AddXOR(vars, rng.Bool())
	}
	return f
}

// TestPackedAgainstBruteForce checks the solver on randomized XOR-heavy
// systems, with and without Gauss–Jordan preprocessing: construction
// may fail only on an unsatisfiable formula, every level-0 literal must
// hold in every model, and blocking-clause enumeration must find
// exactly the brute-force model set.
func TestPackedAgainstBruteForce(t *testing.T) {
	rng := randx.New(0x9acced)
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for iter := 0; iter < iters; iter++ {
		n := 4 + rng.Intn(7)
		f := buildRandomXORCNF(rng, n)
		all := varsUpTo(n)
		models := BruteForceModels(f)
		want := map[string]bool{}
		for _, m := range models {
			want[m.Project(all)] = true
		}
		for _, gauss := range []bool{false, true} {
			s := New(f, Config{Seed: uint64(iter), GaussJordan: gauss})
			if !s.Okay() && len(models) > 0 {
				t.Fatalf("iter %d gauss=%v: construction failed on a formula with %d models",
					iter, gauss, len(models))
			}
			for _, l := range s.trail { // New returns at level 0
				for _, m := range models {
					if m.Get(l.Var()) == l.Neg() {
						t.Fatalf("iter %d gauss=%v: level-0 literal %v fails model %v", iter, gauss, l, m)
					}
				}
			}
			if got := enumerateAll(t, s, f, all); !maps.Equal(got, want) {
				t.Fatalf("iter %d gauss=%v: enumerated %d models, brute force %d",
					iter, gauss, len(got), len(want))
			}
		}
	}
}

// TestPackedRemovableAgainstBruteForce drives the removable-XOR
// machinery (the session substrate) through randomized install/solve/
// release schedules: every Solve verdict must match brute force on the
// base formula ∧ the active rows, and every model must satisfy that
// conjunction.
func TestPackedRemovableAgainstBruteForce(t *testing.T) {
	rng := randx.New(0x5e55)
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for iter := 0; iter < iters; iter++ {
		n := 5 + rng.Intn(6)
		f := buildRandomXORCNF(rng, n)
		s := New(f, Config{Seed: uint64(iter)})
		if !s.Okay() {
			if BruteForceCount(f) > 0 {
				t.Fatalf("iter %d: construction failed on a satisfiable formula", iter)
			}
			continue
		}
		for round := 0; round < 6; round++ {
			conj := f.Clone()
			nrows := 1 + rng.Intn(3)
			sels := make([]*Selector, 0, nrows)
			acts := make([]cnf.Lit, 0, nrows)
			for i := 0; i < nrows; i++ {
				width := rng.Intn(n + 1)
				vars := make([]cnf.Var, 0, width)
				for k := 0; k < width; k++ {
					vars = append(vars, cnf.Var(1+rng.Intn(n)))
				}
				rhs := rng.Bool()
				conj.AddXOR(vars, rhs)
				sel := s.AddXORRemovable(vars, rhs)
				sels = append(sels, sel)
				acts = append(acts, sel.Lit())
			}
			st := s.Solve(acts...)
			if want := BruteForceCount(conj) > 0; st == Unknown || (st == Sat) != want {
				t.Fatalf("iter %d round %d: status %v, brute force sat=%v", iter, round, st, want)
			}
			if st == Sat && !s.Model().Satisfies(conj) {
				t.Fatalf("iter %d round %d: model violates the base formula or an active row", iter, round)
			}
			for _, sel := range sels {
				s.Release(sel)
			}
			if s.Tainted() {
				break // a session would rebuild; stop the replay
			}
			s.CollectGarbage()
		}
	}
}

// wideRowShares are the shares of padding variables that wideRowFormula
// makes equal to a core variable; the rest are pinned.
var wideRowShares = []float64{0.05, 0.2, 0.5}

// wideRowFormula embeds a random CNF+XOR formula over k = 3–8 core
// variables, at random indices, in 300–600 variables, so that its XOR
// rows span several 64-column words. Each padding variable is pinned by
// a unit clause or, with probability eqShare, made equal to a random
// core variable by two binary clauses. The formula's XORs take a random
// subset of the core plus random padding from the first half of the
// padding (by index); 1–3 more rows draw only from the second half, so
// their windows start past word 0. A random core assignment, with its
// padding filled in, fixes each XOR's right-hand side and satisfies
// each clause's first literal, so the formula is satisfiable. It
// returns the formula, the core and the projections onto the core of
// its models, found by filling in the padding for each of the 2^k core
// assignments.
func wideRowFormula(rng *randx.RNG, eqShare float64) (*cnf.Formula, []cnf.Var, map[string]bool) {
	n, k := 300+rng.Intn(301), 3+rng.Intn(6)
	core := make([]cnf.Var, k)
	for i, p := range rng.Perm(n)[:k] {
		core[i] = cnf.Var(p + 1)
	}
	eq := make([]cnf.Var, n+1)  // padding variable → the core variable it equals
	pin := cnf.NewAssignment(n) // padding variable → its pinned value
	f := cnf.New(n)
	var pad []cnf.Var
	for v := cnf.Var(1); int(v) <= n; v++ {
		if slices.Contains(core, v) {
			continue
		}
		pad = append(pad, v)
		if rng.Float64() < eqShare {
			eq[v] = core[rng.Intn(k)]
			f.AddClause(-int(v), int(eq[v]))
			f.AddClause(int(v), -int(eq[v]))
		} else {
			pin[v] = rng.Bool()
			f.AddClauseLits(cnf.Clause{cnf.MkLit(v, !pin[v])})
		}
	}
	fill := func(mask int) cnf.Assignment {
		a := cnf.NewAssignment(n)
		for i, c := range core {
			a[c] = mask&(1<<i) != 0
		}
		for _, v := range pad {
			if eq[v] != 0 {
				a[v] = a[eq[v]]
			} else {
				a[v] = pin[v]
			}
		}
		return a
	}
	planted := fill(rng.Intn(1 << k))
	pick := func(vs []cnf.Var) []cnf.Var {
		var out []cnf.Var
		for _, v := range vs {
			if rng.Bool() {
				out = append(out, v)
			}
		}
		return out
	}
	addRow := func(vars []cnf.Var) {
		par := false
		for _, v := range vars {
			par = par != planted[v]
		}
		f.AddXOR(vars, par)
	}
	for i := rng.Intn(k); i > 0; i-- {
		v := core[rng.Intn(k)]
		c := cnf.Clause{cnf.MkLit(v, !planted[v])} // true under planted
		for w := rng.Intn(3); w > 0; w-- {
			c = append(c, cnf.MkLit(core[rng.Intn(k)], rng.Bool()))
		}
		f.AddClauseLits(c)
	}
	lo, hi := pad[:len(pad)/2], pad[len(pad)/2:]
	for i := 1 + rng.Intn(3); i > 0; i-- {
		addRow(append(pick(core), pick(lo)...))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		addRow(pick(hi))
	}
	want := map[string]bool{}
	for mask := 0; mask < 1<<k; mask++ {
		if a := fill(mask); a.Satisfies(f) {
			want[a.Project(core)] = true
		}
	}
	return f, core, want
}

// TestWideRowsAgainstBruteForce enumerates wide-row formulas over their
// core variables, with Gauss–Jordan off and on, and compares the result
// with the expected model set. Their rows take the multi-word branch of
// propagateXORs (block skip, parity fold tail, windows past word 0),
// which the small formulas above never reach.
func TestWideRowsAgainstBruteForce(t *testing.T) {
	rng := randx.New(0x31de)
	for iter := 0; iter < 120; iter++ {
		f, core, want := wideRowFormula(rng, wideRowShares[iter%len(wideRowShares)])
		for _, gauss := range []bool{false, true} {
			s := New(f, Config{Seed: uint64(iter), GaussJordan: gauss})
			if got := enumerateAll(t, s, f, core); !maps.Equal(got, want) {
				t.Fatalf("iter %d gauss=%v: enumerated %d core assignments, expected %d",
					iter, gauss, len(got), len(want))
			}
		}
	}
}

// TestGaussPackedColumnDedup: variables shared across base XOR clauses
// must get exactly one column each under Gauss preprocessing (the
// pending-marker dedup regression: overlapping rows used to re-append
// a variable per occurrence, inflating the column space).
func TestGaussPackedColumnDedup(t *testing.T) {
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2, 3}, true)
	f.AddXOR([]cnf.Var{2, 3}, false)
	s := New(f, Config{GaussJordan: true})
	if got := len(s.xvarOf); got != 3 {
		t.Fatalf("column space has %d entries for 3 distinct XOR variables: %v", got, s.xvarOf)
	}
	seen := map[cnf.Var]bool{}
	for _, v := range s.xvarOf {
		if seen[v] {
			t.Fatalf("variable %d columned twice: %v", v, s.xvarOf)
		}
		seen[v] = true
	}
	if s.Solve() != Sat {
		t.Fatal("solve failed")
	}
}

// TestPackedColumnRecycling: releasing hash rows must recycle their
// selector columns, keeping the packed column space at O(|S| + m)
// instead of growing with the lifetime selector count.
func TestPackedColumnRecycling(t *testing.T) {
	f := cnf.New(8)
	f.AddClause(1, 2)
	s := New(f, Config{})
	vars := []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8}
	if cols := s.XORColumns(vars); cols != nil {
		t.Fatalf("first registration not identity: %v", cols)
	}
	width := func() int { return len(s.xvarOf) }
	base := width()
	for round := 0; round < 50; round++ {
		sels := make([]*Selector, 3)
		acts := make([]cnf.Lit, 3)
		for i := range sels {
			sels[i] = s.AddXORRemovable(vars[i:i+4], i%2 == 0)
			acts[i] = sels[i].Lit()
		}
		if s.Solve(acts...) != Sat {
			t.Fatalf("round %d: unexpected UNSAT", round)
		}
		for _, sel := range sels {
			s.Release(sel)
		}
		s.CollectGarbage()
	}
	if got := width(); got > base+3 {
		t.Fatalf("column space grew to %d (base %d): selector columns not recycled", got, base)
	}
}
