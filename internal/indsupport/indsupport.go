// Package indsupport decides and minimizes independent supports of CNF
// formulas. The DAC'14 paper assumes a (small) independent support is
// supplied from the problem domain and notes that "an algorithmic
// solution to this problem is beyond the scope of this paper" (§4);
// this package provides that solution, in the style of the follow-up
// work on minimal independent supports (Ivrii, Malik, Meel, Vardi,
// Constraints 2016). A set S is an independent support of F iff the
// "doubled" formula
//
//	F(X) ∧ F(X') ∧ ⋀_{v∈S} (v = v') ∧ ⋁_{w∉S} (w ≠ w')
//
// is unsatisfiable. Shrinking a set uses Padoa-style definability
// checks (Lagniez, Lonca, Marquis, IJCAI 2016) on one incremental
// solver: v is defined by U within F iff
//
//	F(X) ∧ F(X') ∧ ⋀_{u∈U} (u = u') ∧ v ∧ ¬v'
//
// is unsatisfiable, and each equality u = u' sits behind an indicator
// literal so that every check is a Solve call under assumptions.
package indsupport

import (
	"errors"
	"sync/atomic"

	"unigen/internal/cnf"
	"unigen/internal/sat"
)

// ErrBudget is returned when a solver call ran out of its conflict or
// propagation budget, or was interrupted, before reaching a verdict.
var ErrBudget = errors.New("indsupport: solver budget exhausted")

// hashSetBudget is the conflict budget of each definability check in
// HashSet. It only limits UNSAT proofs (an exhausted check keeps the
// variable), and where pruning pays those proofs are short.
const hashSetBudget = 200

// IsIndependent reports whether S is an independent support of f.
// The check is one SAT call on a formula twice the size of f.
func IsIndependent(f *cnf.Formula, s []cnf.Var, cfg sat.Config) (bool, error) {
	g := doubled(f, s)
	solver := sat.New(g, cfg)
	switch solver.Solve() {
	case sat.Unsat:
		return true, nil
	case sat.Sat:
		return false, nil
	default:
		return false, ErrBudget
	}
}

// Minimize greedily shrinks the given independent support: variables
// are dropped one at a time whenever the remainder still defines them.
// The result is minimal (no single variable can be removed) but not
// necessarily minimum. It errors if the starting set is not an
// independent support or if any check exhausts cfg's budget.
func Minimize(f *cnf.Formula, start []cnf.Var, cfg sat.Config) ([]cnf.Var, error) {
	ok, err := IsIndependent(f, start, cfg)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("indsupport: starting set is not an independent support")
	}
	return prune(f, start, cfg, false)
}

// Find computes a minimal independent support starting from all
// variables of f (the full support is always independent).
func Find(f *cnf.Formula, cfg sat.Config) ([]cnf.Var, error) {
	all := make([]cnf.Var, f.NumVars)
	for i := range all {
		all[i] = cnf.Var(i + 1)
	}
	return Minimize(f, all, cfg)
}

// HashSet returns the variables of declared that the others do not
// define within f: the set UniGen hashes over. Every dropped variable
// is a function of the kept ones, so projections of f's witnesses onto
// the two sets are in bijection. declared is visited in order, with a
// fixed solver configuration and a fixed conflict budget per check; a
// variable with a unit clause in f is kept without a check, and so is
// one whose check runs out of budget. The result therefore depends
// only on f's clauses and declared's order — callers that need it to be
// a function of the fingerprint pass cnf.Canonical(f). intr (nil-safe)
// is polled during search; an interrupted pass returns ErrBudget.
func HashSet(f *cnf.Formula, declared []cnf.Var, intr *atomic.Bool) ([]cnf.Var, error) {
	return prune(f, declared, sat.Config{MaxConflicts: hashSetBudget, Interrupt: intr}, true)
}

// prune runs the definability pass: one solver over F(X) ∧ F(X′), with
// indicator e_i guarding start[i] ↔ start[i]′, visits each start[i] in
// order and drops it when the variables still in the set define it.
// Under hashing rules unit-clause variables are kept unchecked and an
// exhausted check keeps the variable; otherwise an exhausted check is
// an error. An interrupt is always an error.
func prune(f *cnf.Formula, start []cnf.Var, cfg sat.Config, hashing bool) ([]cnf.Var, error) {
	n := f.NumVars
	for _, v := range start {
		n = max(n, int(v))
	}
	fixed := make([]bool, n+1)
	if hashing {
		for _, c := range f.Clauses {
			if len(c) == 1 {
				fixed[c[0].Var()] = true
			}
		}
	}
	solver := sat.New(definability(f, n, start), cfg)
	indicator := func(i int) cnf.Lit { return cnf.MkLit(cnf.Var(2*n+1+i), false) }
	in := make([]bool, len(start))
	for i := range in {
		in[i] = true
	}
	var assumps []cnf.Lit
	for i, v := range start {
		if fixed[v] {
			continue
		}
		assumps = assumps[:0]
		for j := range start {
			if in[j] && j != i {
				assumps = append(assumps, indicator(j))
			}
		}
		// One polarity suffices: swapping X and X′ maps v ∧ ¬v′ onto
		// ¬v ∧ v′.
		assumps = append(assumps, cnf.MkLit(v, false), cnf.MkLit(v+cnf.Var(n), true))
		switch solver.Solve(assumps...) {
		case sat.Unsat:
			in[i] = false
		case sat.Sat:
		default:
			if !hashing || (cfg.Interrupt != nil && cfg.Interrupt.Load()) {
				return nil, ErrBudget
			}
		}
	}
	out := make([]cnf.Var, 0, len(start))
	for i, v := range start {
		if in[i] {
			out = append(out, v)
		}
	}
	return out, nil
}

// definability builds F(X) ∧ F(X′) over 2n variables plus one indicator
// per start variable: e_i = 2n+1+i implies start[i] ↔ start[i]′.
func definability(f *cnf.Formula, n int, start []cnf.Var) *cnf.Formula {
	g := cnf.New(2*n + len(start))
	copyTwice(g, f, n)
	for i, u := range start {
		e, x, y := 2*n+1+i, int(u), int(u)+n
		g.AddClause(-e, -x, y)
		g.AddClause(-e, x, -y)
	}
	return g
}

// copyTwice adds F(X) and F(X′) to g, X′ being X shifted by n.
func copyTwice(g, f *cnf.Formula, n int) {
	for _, c := range f.Clauses {
		g.AddClauseLits(append(cnf.Clause(nil), c...))
		shifted := make(cnf.Clause, len(c))
		for i, l := range c {
			shifted[i] = cnf.MkLit(l.Var()+cnf.Var(n), l.Neg())
		}
		g.AddClauseLits(shifted)
	}
	for _, x := range f.XORs {
		g.AddXOR(x.Vars, x.RHS)
		shifted := make([]cnf.Var, len(x.Vars))
		for i, v := range x.Vars {
			shifted[i] = v + cnf.Var(n)
		}
		g.AddXOR(shifted, x.RHS)
	}
}

// doubled builds F(X) ∧ F(X') ∧ (S agree) ∧ (some non-S var differs).
// X' uses variables shifted by f.NumVars; difference indicators d_w
// (one per non-S variable) occupy a third block.
func doubled(f *cnf.Formula, s []cnf.Var) *cnf.Formula {
	n := f.NumVars
	inS := make([]bool, n+1)
	for _, v := range s {
		if int(v) <= n {
			inS[v] = true
		}
	}
	g := cnf.New(2 * n)
	copyTwice(g, f, n)
	// Agreement on S.
	for _, v := range s {
		if int(v) > n {
			continue
		}
		g.AddClause(-int(v), int(v)+n)
		g.AddClause(int(v), -(int(v) + n))
	}
	// Some non-S variable differs: d_w ↔ (w ⊕ w'), ⋁ d_w.
	var diff cnf.Clause
	next := 2 * n
	for w := 1; w <= n; w++ {
		if inS[w] {
			continue
		}
		next++
		d := cnf.Var(next)
		// d ⊕ w ⊕ w' = 0  ⇔  d = w ⊕ w'.
		g.AddXOR([]cnf.Var{d, cnf.Var(w), cnf.Var(w + n)}, false)
		diff = append(diff, cnf.MkLit(d, false))
	}
	if len(diff) == 0 {
		// S covers everything: independence is trivially true; encode
		// unsatisfiable difference requirement.
		g.Clauses = append(g.Clauses, cnf.Clause{})
		return g
	}
	g.AddClauseLits(diff)
	return g
}
