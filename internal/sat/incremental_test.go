package sat

import (
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// AddXORRemovable adds the parity constraint ⊕vars = rhs guarded by a
// fresh selector: it packs the row onto the solver's own column space
// and installs it through AddPackedXORRemovable with the identity
// column mapping. Must be called at decision level 0.
func (s *Solver) AddXORRemovable(vars []cnf.Var, rhs bool) *Selector {
	if s.decisionLevel() != 0 {
		panic("sat: AddXORRemovable above level 0")
	}
	norm, nrhs := cnf.NormalizeXOR(vars, rhs)
	return s.AddPackedXORRemovable(s.packXORRow(norm), nrhs, nil)
}

// TestRemovableClauseActivation: a guarded clause constrains the search
// only when its activation literal is assumed.
func TestRemovableClauseActivation(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2)
	s := New(f, Config{})
	// ¬1 ∧ ¬2 is unsatisfiable together with (1 ∨ 2) — but only when
	// both removable clauses are active.
	s1 := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(1, true)})
	s2 := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(2, true)})
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: Solve = %v, want SAT", got)
	}
	if got := s.Solve(s1.Lit()); got != Sat {
		t.Fatalf("one guard: Solve = %v, want SAT", got)
	}
	m := s.Model()
	if m.Get(1) {
		t.Fatal("active removable clause ¬x1 violated")
	}
	if got := s.Solve(s1.Lit(), s2.Lit()); got != Unsat {
		t.Fatalf("both guards: Solve = %v, want UNSAT", got)
	}
	// Still satisfiable without assumptions after the UNSAT call.
	if got := s.Solve(); got != Sat {
		t.Fatalf("after UNSAT call: Solve = %v, want SAT", got)
	}
}

// TestReleaseStopsConstraining: a released clause is gone for good, and
// learned clauses that depended on it no longer constrain the search.
func TestReleaseStopsConstraining(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	f.AddClause(1, 3)
	s := New(f, Config{})
	sel := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(1, true)}) // ¬x1
	if got := s.Solve(sel.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	if s.Model().Get(1) {
		t.Fatal("x1 should be forced false while the guard is active")
	}
	s.Release(sel)
	if !sel.Released() {
		t.Fatal("selector not marked released")
	}
	// x1 must be free again: force it true via a permanent unit.
	if !s.AddClause(cnf.Clause{cnf.MkLit(1, false)}) {
		t.Fatal("adding unit x1 made the solver UNSAT: released clause still constrains")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("after release: Solve = %v, want SAT", got)
	}
	if !s.Model().Get(1) {
		t.Fatal("x1 not true after release + unit")
	}
	// Releasing twice is a no-op.
	s.Release(sel)
}

// TestRemovableXORActivationAndRelease: removable parity constraints
// enforce, swap, and retire correctly.
func TestRemovableXORActivationAndRelease(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2) // keep both vars in the formula
	s := New(f, Config{})
	odd := s.AddXORRemovable([]cnf.Var{1, 2}, true)
	if got := s.Solve(odd.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	if m.Get(1) == m.Get(2) {
		t.Fatalf("active XOR x1⊕x2=1 violated: model %v", m)
	}
	s.Release(odd)
	even := s.AddXORRemovable([]cnf.Var{1, 2}, false)
	if got := s.Solve(even.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m = s.Model()
	if m.Get(1) != m.Get(2) {
		t.Fatalf("active XOR x1⊕x2=0 violated: model %v", m)
	}
	// Conflicting removable XORs: UNSAT only while both are assumed.
	odd2 := s.AddXORRemovable([]cnf.Var{1, 2}, true)
	if got := s.Solve(even.Lit(), odd2.Lit()); got != Unsat {
		t.Fatalf("contradictory parities: Solve = %v, want UNSAT", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: Solve = %v, want SAT", got)
	}
}

// TestAssumptionsComposeWithXORPropagation: an assumption-activated
// clause must feed native XOR propagation and vice versa (the ISSUE's
// composition requirement).
func TestAssumptionsComposeWithXORPropagation(t *testing.T) {
	f := cnf.New(4)
	f.AddXOR([]cnf.Var{1, 2}, true) // permanent: x1⊕x2 = 1
	f.AddClause(3, 4)
	s := New(f, Config{})
	// Removable clause forcing x1; removable XOR chaining x2 to x3.
	cSel := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(1, false)}) // x1
	xSel := s.AddXORRemovable([]cnf.Var{2, 3}, true)              // x2⊕x3 = 1
	if got := s.Solve(cSel.Lit(), xSel.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	if !m.Get(1) {
		t.Fatal("assumed removable clause did not force x1")
	}
	if m.Get(2) {
		t.Fatal("permanent XOR did not propagate x2 = ¬x1")
	}
	if !m.Get(3) {
		t.Fatal("removable XOR did not propagate x3 = ¬x2")
	}
	// With only the clause active, x3 is unconstrained: both values
	// must be reachable (force each with a further removable unit).
	for _, want := range []bool{false, true} {
		u := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(3, !want)})
		if got := s.Solve(cSel.Lit(), u.Lit()); got != Sat {
			t.Fatalf("x3=%v: Solve = %v, want SAT", want, got)
		}
		if s.Model().Get(3) != want {
			t.Fatalf("x3 = %v, want %v", s.Model().Get(3), want)
		}
		s.Release(u)
	}
}

// TestReleaseRecyclesXORSlots: released XOR rows free their slots for
// reuse instead of growing the xors arena forever.
func TestReleaseRecyclesXORSlots(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2, 3, 4)
	s := New(f, Config{})
	sel := s.AddXORRemovable([]cnf.Var{1, 2, 3}, true)
	base := len(s.xors)
	for i := 0; i < 50; i++ {
		s.Release(sel)
		sel = s.AddXORRemovable([]cnf.Var{1, 2, 3}, i%2 == 0)
		if got := s.Solve(sel.Lit()); got != Sat {
			t.Fatalf("round %d: Solve = %v, want SAT", i, got)
		}
	}
	if len(s.xors) != base {
		t.Fatalf("xor arena grew from %d to %d slots across release/re-add cycles",
			base, len(s.xors))
	}
}

// TestGroupedSelector: many clauses under one selector activate and
// release together.
func TestGroupedSelector(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	sel := s.NewClauseSelector()
	s.AddClauseToSelector(sel, cnf.Clause{cnf.MkLit(1, true)}) // ¬x1
	s.AddClauseToSelector(sel, cnf.Clause{cnf.MkLit(2, true)}) // ¬x2
	if got := s.Solve(sel.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	if m.Get(1) || m.Get(2) || !m.Get(3) {
		t.Fatalf("grouped guards not enforced: model %v", m)
	}
	s.AddClauseToSelector(sel, cnf.Clause{cnf.MkLit(3, true)}) // ¬x3: now UNSAT
	if got := s.Solve(sel.Lit()); got != Unsat {
		t.Fatalf("after third guard: Solve = %v, want UNSAT", got)
	}
	s.Release(sel)
	if got := s.Solve(); got != Sat {
		t.Fatalf("after release: Solve = %v, want SAT", got)
	}
}

// TestSelectorVarsStayOffHeaps: allocating selectors must not push them
// into either decision heap (the invariant pickBranchLit relies on).
func TestSelectorVarsStayOffHeaps(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2)
	s := New(f, Config{})
	sels := []*Selector{
		s.AddClauseRemovable(cnf.Clause{cnf.MkLit(1, true)}),
		s.AddXORRemovable([]cnf.Var{1, 2}, true),
		s.NewClauseSelector(),
	}
	for _, sel := range sels {
		v := sel.Lit().Var()
		if s.order.contains(v) || s.priOrder.contains(v) {
			t.Fatalf("selector var %d present in a decision heap", v)
		}
		if s.isSelector[v] == selNone {
			t.Fatalf("selector var %d not marked", v)
		}
	}
	if got := s.Solve(sels[0].Lit(), sels[1].Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
}

// TestLevel0TaintFromRemovableXOR forces the taint escape hatch
// deterministically: fixing every formula variable of a removable XOR
// at level 0 makes the row propagate its own selector onto the
// permanent trail, which must raise Tainted. The call's own verdicts
// stay valid; the owner is expected to rebuild afterwards.
func TestLevel0TaintFromRemovableXOR(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	sel := s.AddXORRemovable([]cnf.Var{1, 2}, true)
	if s.Tainted() {
		t.Fatal("tainted before any level-0 propagation")
	}
	// Fix x1 = true, x2 = false at level 0: the guarded row x1⊕x2⊕a = 1
	// now implies a at level 0.
	if !s.AddClause(cnf.Clause{cnf.MkLit(1, false)}) || !s.AddClause(cnf.Clause{cnf.MkLit(2, true)}) {
		t.Fatal("units made the solver UNSAT")
	}
	if !s.Tainted() {
		t.Fatal("level-0 propagation through a removable XOR did not taint the solver")
	}
	// The current attached system is still answered correctly: the row
	// is satisfied by x1=1, x2=0, so activation is consistent.
	if got := s.Solve(sel.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	if !m.Get(1) || m.Get(2) {
		t.Fatalf("model %v contradicts level-0 units", m)
	}
}

// TestTaintOnGuardAbsorbedAboveLevel0: propagation assigning a
// removable XOR's own guard to the deactivating polarity above level 0
// must taint the solver (learned clauses formed past that point can
// hold the guard polarity Release would falsify); the activating
// polarity must not.
func TestTaintOnGuardAbsorbedAboveLevel0(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	u1 := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(1, false)}) // x1
	u2 := s.AddClauseRemovable(cnf.Clause{cnf.MkLit(2, false)}) // x2
	// With x1 = x2 = true forced at assumption levels, this row fixes
	// its guard to the ACTIVATING polarity (row already satisfied).
	s.AddXORRemovable([]cnf.Var{1, 2}, false)
	if got := s.Solve(u1.Lit(), u2.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	if s.Tainted() {
		t.Fatal("activating-polarity guard propagation must not taint")
	}
	// Same shape, opposite parity: the guard is absorbed (deactivating
	// polarity) above level 0 — must taint.
	s.AddXORRemovable([]cnf.Var{1, 2}, true)
	if got := s.Solve(u1.Lit(), u2.Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	if !s.Tainted() {
		t.Fatal("guard absorbed above level 0 did not taint the solver")
	}
}

// TestIncrementalDifferentialStatus cross-checks removable constraints
// against fresh solvers with the same constraints added permanently,
// over randomized CNF+XOR formulas.
func TestIncrementalDifferentialStatus(t *testing.T) {
	rng := randx.New(0xd1ff)
	for iter := 0; iter < 120; iter++ {
		n := 4 + rng.Intn(6)
		f := cnf.New(n)
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			c := make(cnf.Clause, 0, 3)
			for j := 0; j < 3; j++ {
				c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
			}
			f.AddClauseLits(c)
		}
		inc := New(f, Config{Seed: uint64(iter)})

		// Random removable constraints: a few clauses and XOR rows.
		var acts []cnf.Lit
		g := f.Clone()
		for k, kk := 0, 1+rng.Intn(3); k < kk; k++ {
			if rng.Bool() {
				c := make(cnf.Clause, 0, 2)
				for j := 0; j < 1+rng.Intn(2); j++ {
					c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
				}
				acts = append(acts, inc.AddClauseRemovable(c).Lit())
				g.AddClauseLits(c)
			} else {
				var vs []cnf.Var
				for v := 1; v <= n; v++ {
					if rng.Bool() {
						vs = append(vs, cnf.Var(v))
					}
				}
				rhs := rng.Bool()
				acts = append(acts, inc.AddXORRemovable(vs, rhs).Lit())
				g.AddXOR(vs, rhs)
			}
		}
		fresh := New(g, Config{Seed: uint64(iter)})
		want := fresh.Solve()
		got := inc.Solve(acts...)
		if got != want {
			t.Fatalf("iter %d: incremental %v, fresh %v\n%s", iter, got, want, cnf.DIMACSString(g))
		}
		if got == Sat {
			m := inc.Model()[:n+1] // drop selector variables
			if !m.Satisfies(g) {
				t.Fatalf("iter %d: incremental model violates constraints", iter)
			}
		}
		// The base formula's status must be unaffected by the removable
		// constraints (with or without releasing them).
		baseWant := New(f, Config{Seed: uint64(iter)}).Solve()
		if got := inc.Solve(); got != baseWant {
			t.Fatalf("iter %d: base status with inactive guards %v, want %v", iter, got, baseWant)
		}
	}
}
