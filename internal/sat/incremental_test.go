package sat

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/randx"
)

// AddXORRemovable adds the parity constraint ⊕vars = rhs guarded by a
// fresh selector: it packs the row over the normalized variables and
// installs it through AddPackedXORToSelector with their column map.
// Must be called at decision level 0.
func (s *Solver) AddXORRemovable(vars []cnf.Var, rhs bool) *Selector {
	norm, nrhs := cnf.NormalizeXOR(vars, rhs)
	bits := make([]uint64, gf2.Words(len(norm)))
	for i := range norm {
		bits[i>>6] |= 1 << uint(i&63)
	}
	sel := s.NewSelector()
	s.AddPackedXORToSelector(sel, bits, nrhs, s.XORColumns(norm))
	return sel
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
	sel := s.NewSelector()
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
		s.NewSelector(),
	}
	for _, sel := range sels {
		v := sel.Lit().Var()
		if s.order.contains(v) || s.priOrder.contains(v) {
			t.Fatalf("selector var %d present in a decision heap", v)
		}
		if !s.isSelector[v] {
			t.Fatalf("selector var %d not marked", v)
		}
	}
	if got := s.Solve(sels[0].Lit(), sels[1].Lit()); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
}

// TestRowContradictedAtLevel0SwitchesGuardOff: a removable row whose
// variables the level-0 facts fix so that they violate it forces its
// guard to the off polarity at level 0, and the solver stays Okay;
// assuming the row then fails on the guard, and releasing it leaves
// the base formula as it was. A row the same facts satisfy leaves its
// guard free.
func TestRowContradictedAtLevel0SwitchesGuardOff(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	bad := s.AddXORRemovable([]cnf.Var{1, 2}, false)
	good := s.AddXORRemovable([]cnf.Var{1, 2}, true)
	// Fix x1 = true, x2 = false at level 0: x1⊕x2 = 1 violates bad and
	// satisfies good.
	if !s.AddClause(cnf.Clause{cnf.MkLit(1, false)}) || !s.AddClause(cnf.Clause{cnf.MkLit(2, true)}) {
		t.Fatal("units made the solver UNSAT")
	}
	if !s.Okay() {
		t.Fatal("a contradicted removable row made the solver inconsistent")
	}
	if s.value(bad.Lit()) != lFalse {
		t.Fatalf("guard of the violated row is %v at level 0, want off", s.value(bad.Lit()))
	}
	if s.value(good.Lit()) != lUndef {
		t.Fatal("guard of the satisfied row was fixed at level 0")
	}
	if got := s.Solve(bad.Lit()); got != Unsat {
		t.Fatalf("Solve under the violated row = %v, want UNSAT", got)
	}
	if got := s.Solve(good.Lit()); got != Sat {
		t.Fatalf("Solve under the satisfied row = %v, want SAT", got)
	}
	s.Release(bad)
	s.Release(good)
	if got := s.Solve(); got != Sat || !s.Okay() {
		t.Fatalf("after release: Solve = %v, Okay = %v", got, s.Okay())
	}
	if m := s.Model(); !m.Get(1) || m.Get(2) {
		t.Fatalf("model %v contradicts the level-0 units", m)
	}
}

// TestGuardOnSwitchesRowOff: a guard set true above level 0 switches
// its row off. With x1 decided, the row x1⊕x2 = 1 would force x2; with
// its guard on first, propagation assigns nothing, and either value of
// x2 solves.
func TestGuardOnSwitchesRowOff(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	row := s.AddXORRemovable([]cnf.Var{1, 2}, true)
	off, x1 := row.Lit().Not(), cnf.MkLit(1, false)
	for _, order := range [][2]cnf.Lit{{off, x1}, {x1, off}} {
		for _, l := range order {
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(l, reason{})
		}
		if confl := s.propagate(); !confl.none() || len(s.trail) != 2 {
			t.Fatalf("decisions %v: propagation assigned %v", order, s.trail)
		}
		s.cancelUntil(0)
	}
	for _, x2 := range []bool{false, true} {
		if got := s.Solve(off, x1, cnf.MkLit(2, !x2)); got != Sat {
			t.Fatalf("guard on, x1, x2=%v: Solve = %v, want SAT", x2, got)
		}
	}
	if got := s.Solve(row.Lit(), x1, cnf.MkLit(2, false)); got != Unsat {
		t.Fatalf("row on, x1, x2: Solve = %v, want UNSAT", got)
	}
}

// TestReleaseLeavesBaseConsequencesAtLevel0 runs sessions of random
// removable rows and clauses, each cell enumerated under a random
// subset of them and then released, over random CNF+XOR formulas.
// Between cells, every formula literal on the level-0 trail must hold
// in every model of the base formula, and every selector fixed at
// level 0 must hold its off polarity.
func TestReleaseLeavesBaseConsequencesAtLevel0(t *testing.T) {
	rng := randx.New(0x1e0)
	fixed := 0
	for iter := 0; iter < 200; iter++ {
		n := 3 + rng.Intn(5)
		f := buildRandomXORCNF(rng, n)
		models := BruteForceModels(f)
		vars := varsUpTo(n)
		s := New(f, Config{PriorityVars: vars})
		s.SetModelBound(n)
		var sels []*Selector
		off := map[cnf.Var]cnf.Lit{} // every selector's off literal
		for cell := 0; cell < 8; cell++ {
			for k := rng.Intn(3); k >= 0; k-- {
				var sel *Selector
				if rng.Bool() {
					sel = s.AddXORRemovable(fuzzVars(uint16(rng.Intn(1<<n)), vars), rng.Bool())
				} else {
					c := cnf.Clause{cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Bool()), cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Bool())}
					sel = s.AddClauseRemovable(c)
				}
				sels = append(sels, sel)
				off[sel.Lit().Var()] = sel.Lit().Not()
			}
			var acts []cnf.Lit
			for _, sel := range sels {
				if rng.Bool() {
					acts = append(acts, sel.Lit())
				}
			}
			blk := s.NewSelector()
			off[blk.Lit().Var()] = blk.Lit().Not()
			if st := s.Enumerate(blk, append(acts, blk.Lit()), func() bool { return true }); st != Unsat {
				t.Fatalf("iter %d cell %d: Enumerate = %v", iter, cell, st)
			}
			s.Release(blk)
			for i := len(sels) - 1; i >= 0; i-- {
				if rng.Intn(3) == 0 {
					s.Release(sels[i])
					sels = append(sels[:i], sels[i+1:]...)
				}
			}
			for _, l := range s.trail {
				v := l.Var()
				if s.isSelector[v] {
					if l != off[v] {
						t.Fatalf("iter %d cell %d: selector %d holds its on polarity at level 0", iter, cell, v)
					}
					continue
				}
				fixed++
				for _, m := range models {
					if m[v] == l.Neg() {
						t.Fatalf("iter %d cell %d: level-0 literal %v is false in base model %v", iter, cell, l, m)
					}
				}
			}
		}
	}
	if fixed == 0 {
		t.Fatal("no formula literal was ever fixed at level 0")
	}
}

// TestRecycledGuardCarriesNothing empties a cell whose selector forces
// both x1 and ¬x1, with x1 decided first. Deciding ¬x1 learns the
// binary {x1, a} on the guard a, which gets an arena block among the
// learnts, and its x1 then learns the unit a, so the guard holds a
// learned binary and sits on the level-0 trail with x1 free. Released,
// the guard comes back from NewSelector as the same variable, twice,
// and each new group's cell must match BruteForceModels: a leftover of
// the binary would force x1 whenever the new guard is assumed, or
// switch it off with ¬x1.
func TestRecycledGuardCarriesNothing(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(2, 3, 4)
	S := []cnf.Var{1, 2}
	s := New(f, Config{PriorityVars: S})
	s.SetModelBound(f.NumVars)
	sel := s.NewSelector()
	for _, c := range [][]int{{1, 2}, {1, -2}, {-1, 3}, {-1, -3}} {
		s.AddClauseToSelector(sel, cnf.Clause{cnf.FromDIMACS(c[0]), cnf.FromDIMACS(c[1])})
	}
	if st := s.Enumerate(sel, []cnf.Lit{sel.Lit()}, func() bool { return true }); st != Unsat {
		t.Fatalf("cell forcing x1 and ¬x1: Enumerate = %v", st)
	}
	a := sel.Lit().Var()
	on := cnf.MkLit(a, false)
	binary := slices.ContainsFunc(s.learnts, func(cr CRef) bool {
		lits := s.ca.appendLits(nil, cr)
		return len(lits) == 2 && slices.Contains(lits, on) && slices.Contains(lits, cnf.MkLit(1, false))
	})
	if !binary || s.value(on) != lTrue || !s.reasons[a].isNone() || s.value(cnf.MkLit(1, false)) != lUndef {
		t.Fatalf("learned binary {x1, a} %v, guard %v with reason %v, x1 %v", binary, s.value(on), s.reasons[a], s.value(cnf.MkLit(1, false)))
	}
	for _, group := range []cnf.XORClause{{Vars: []cnf.Var{1, 2}, RHS: true}, {Vars: []cnf.Var{1, 3}, RHS: false}} {
		s.Release(sel)
		if sel = s.NewSelector(); sel.Lit().Var() != a || s.NumVars() != f.NumVars+1 {
			t.Fatalf("NewSelector took variable %d of %d, want the recycled %d", sel.Lit().Var(), s.NumVars(), a)
		}
		bits := []uint64{0}
		for i := range group.Vars {
			bits[0] |= 1 << uint(i)
		}
		s.AddPackedXORToSelector(sel, bits, group.RHS, s.XORColumns(group.Vars))
		conj := f.Clone()
		conj.XORs = append(conj.XORs, group)
		want := map[string]bool{}
		for _, m := range BruteForceModels(conj) {
			want[m.Project(S)] = true
		}
		got := map[string]bool{}
		st := s.Enumerate(sel, []cnf.Lit{sel.Lit()}, func() bool {
			got[s.Model().Project(S)] = true
			return true
		})
		if st != Unsat || !maps.Equal(got, want) {
			t.Fatalf("group %v: Enumerate = %v with projections %v, brute force %v", group, st, got, want)
		}
	}
}

// TestReleaseLeavesNothingOfItsGuard runs cells over random CNF+XOR
// formulas, each under one selector that guards random rows and
// clauses and blocks the cell's models, as a session call does. Once
// Release returns, nothing may mention the guard (guardTrace), and the
// next NewSelector must return the same variable. Over the run the
// released guards must have held learned clauses, binary and longer,
// and some must have been fixed at level 0 by a clause of their own.
func TestReleaseLeavesNothingOfItsGuard(t *testing.T) {
	rng := randx.New(0x9e1ea5e)
	var binaries, longer, fixed int
	for iter := 0; iter < 150; iter++ {
		n := 4 + rng.Intn(7)
		vars := varsUpTo(n)
		s := New(buildRandomXORCNF(rng, n), Config{PriorityVars: vars})
		sel := s.NewSelector()
		a := sel.Lit().Var()
		for cell := 0; cell < 6; cell++ {
			for k := rng.Intn(5); k >= 0; k-- {
				if rng.Bool() {
					row := fuzzVars(uint16(rng.Intn(1<<n)), vars)
					s.AddPackedXORToSelector(sel, []uint64{1<<len(row) - 1}, rng.Bool(), s.XORColumns(row))
					continue
				}
				c := cnf.Clause{cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Bool()), cnf.MkLit(cnf.Var(1+rng.Intn(n)), rng.Bool())}
				s.AddClauseToSelector(sel, c)
			}
			s.Enumerate(sel, []cnf.Lit{sel.Lit()}, func() bool { return true })
			for _, cr := range s.learnts {
				if lits := s.ca.appendLits(nil, cr); slices.Contains(lits, cnf.MkLit(a, false)) {
					if len(lits) == 2 {
						binaries++
					} else {
						longer++
					}
				}
			}
			if s.value(cnf.MkLit(a, false)) == lTrue && s.reasons[a].tag == reasonClause {
				fixed++
			}
			s.Release(sel)
			if tr := guardTrace(s, a); tr != "" {
				t.Fatalf("iter %d cell %d: after Release, %s mentions guard %d", iter, cell, tr, a)
			}
			if sel = s.NewSelector(); sel.Lit().Var() != a {
				t.Fatalf("iter %d cell %d: NewSelector took variable %d, want the released %d", iter, cell, sel.Lit().Var(), a)
			}
		}
	}
	t.Logf("learned clauses on released guards: %d binary, %d longer; %d guards fixed by a clause", binaries, longer, fixed)
	if binaries == 0 || longer == 0 || fixed == 0 {
		t.Fatal("the run did not reach every case")
	}
}

// guardTrace describes the first thing in s that still mentions
// variable v, or returns "" when nothing does: a clause in an index
// (or a deleted one), a watcher on v's literals, of a clause holding v
// or of a deleted clause, an inlined binary holding v, an XOR row under
// v or an occurrence of v, or an assignment of v.
func guardTrace(s *Solver, v cnf.Var) string {
	holds := func(cr CRef) bool {
		return slices.ContainsFunc(s.ca.appendLits(nil, cr), func(l cnf.Lit) bool { return l.Var() == v })
	}
	for _, idx := range [][]CRef{s.clauses, s.learnts, s.guarded} {
		for _, cr := range idx {
			if s.ca.deleted(cr) || holds(cr) {
				return fmt.Sprintf("clause %v (deleted %v)", s.ca.appendLits(nil, cr), s.ca.deleted(cr))
			}
		}
	}
	for li, ws := range s.watches {
		for _, wt := range ws {
			if cnf.Lit(li).Var() == v || wt.cr == crefBin && wt.blocker().Var() == v ||
				wt.cr != crefBin && (s.ca.deleted(wt.cr) || holds(wt.cr)) {
				return fmt.Sprintf("watcher %+v in list %d", wt, li)
			}
		}
	}
	if slices.ContainsFunc(s.xors, func(x xorClause) bool { return x.sel == v }) || len(s.occXor[v]) > 0 {
		return "an XOR row"
	}
	if s.assigns[v] != lUndef || slices.ContainsFunc(s.trail, func(l cnf.Lit) bool { return l.Var() == v }) {
		return "an assignment"
	}
	return ""
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
