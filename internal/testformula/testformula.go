// Package testformula holds what the tests of internal/counter and
// internal/core share: random CNF+XOR formulas that hash at
// |H| = 8–16, some with failing ApproxMC rounds and some with line 10's
// q at its lower clamp, and projected model tables that serve as a
// lookup oracle for cells. Only tests import it.
package testformula

import (
	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// Draw draws one formula of a family over nh sampling variables 1..nh
// (plus up to three others for "random"):
//   - "random": a few short clauses and XORs, many witnesses;
//   - "affine": XORs over the sampling set alone, so its projections
//     form an affine space of dimension 7–9. A hash row constant on a
//     cell empties it half the time, so some rounds fail;
//   - "clamp": 12 variables under clauses of widths 2, 3 and 3 over
//     disjoint variables, 4096·¾·⅞·⅞ = 2352 witnesses. At ε = 1.9
//     (pivot 2181, hiThresh 2291) that is the hashing case with line 10
//     at its lower clamp, q = 1, for estimates up to 2423.
func Draw(rng *randx.RNG, family string, nh int) *cnf.Formula {
	n := nh
	if family == "random" {
		n += rng.Intn(4)
	}
	f := cnf.New(n)
	for v := 1; v <= nh; v++ {
		f.SamplingSet = append(f.SamplingSet, cnf.Var(v))
	}
	lit := func(v int) int {
		if rng.Bool() {
			return -v
		}
		return v
	}
	switch family {
	case "random":
		for k := rng.Intn(n/2 + 1); k > 0; k-- {
			f.AddClause(lit(1+rng.Intn(n)), lit(1+rng.Intn(n)), lit(1+rng.Intn(n)))
		}
		for k := rng.Intn(3); k > 0; k-- {
			var vs []cnf.Var
			for v := 1; v <= n; v++ {
				if rng.Intn(3) == 0 {
					vs = append(vs, cnf.Var(v))
				}
			}
			if len(vs) > 0 {
				f.AddXOR(vs, rng.Bool())
			}
		}
	case "affine":
		for k := nh - 7 - rng.Intn(3); k > 0; k-- {
			var vs []cnf.Var
			for v := 1; v <= nh; v++ {
				if rng.Bool() {
					vs = append(vs, cnf.Var(v))
				}
			}
			if len(vs) > 0 {
				f.AddXOR(vs, rng.Bool())
			}
		}
	case "clamp":
		p := rng.Perm(nh)
		f.AddClause(lit(p[0]+1), lit(p[1]+1))
		f.AddClause(lit(p[2]+1), lit(p[3]+1), lit(p[4]+1))
		f.AddClause(lit(p[5]+1), lit(p[6]+1), lit(p[7]+1))
	}
	return f
}

// MaxTableVars bounds the projection sets Table accepts: one solve per
// assignment, so at most 4096 solves.
const MaxTableVars = 12

// Table returns R↓h, the projection onto h of the models of f ∧
// assumps, found with one assumption solve per assignment of h on a
// plain sat.Solver: no blocking clause, selector or enumeration loop,
// so it shares no enumeration code with bsat. Each entry is an
// assignment over f's variables that sets h's and leaves the rest
// false. Entries come in the canonical witness order (h[0] most
// significant, false before true), so the entries of a cell, kept in
// table order, are already sorted. It panics when |h| > MaxTableVars.
func Table(f *cnf.Formula, h []cnf.Var, assumps []cnf.Lit) []cnf.Assignment {
	if len(h) > MaxTableVars {
		panic("testformula: projection set too large for a table")
	}
	s := sat.New(f, sat.Config{})
	lits := make([]cnf.Lit, len(h), len(h)+len(assumps))
	var out []cnf.Assignment
	for x := 0; x < 1<<len(h); x++ {
		a := cnf.NewAssignment(f.NumVars)
		for c, v := range h {
			val := x>>(len(h)-1-c)&1 == 1
			a.Set(v, val)
			lits[c] = cnf.MkLit(v, !val)
		}
		if s.Solve(append(lits, assumps...)...) == sat.Sat {
			out = append(out, a)
		}
	}
	return out
}
