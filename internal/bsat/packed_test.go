package bsat

import (
	"sort"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// TestPackedSessionAgainstBruteForce is the gate of the bit-packed XOR
// engine at the BSAT layer: one session, fed a randomized formula/hash
// sequence, must exhaust every call within budget, and each call's
// projected witness set must equal the brute-force model set of h(F)
// (of F itself for hash-free calls) projected on the sampling set.
func TestPackedSessionAgainstBruteForce(t *testing.T) {
	rng := randx.New(0xb17)
	iters := 50
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		n := 4 + rng.Intn(6)
		f := randomFormula(rng, n)
		vars := f.SamplingVars()
		bound := (1 << uint(len(vars))) + 1
		sess := NewSession(f, Options{Solver: sat.Config{Seed: uint64(iter)}})
		for call, calls := 0, 3+rng.Intn(8); call < calls; call++ {
			var h *hashfam.Hash
			g := f
			if rng.Intn(4) != 0 {
				h = hashfam.Draw(rng, vars, 1+rng.Intn(len(vars)))
				g = h.Apply(f)
			}
			res := sess.Enumerate(bound, h)
			if !res.Exhausted || res.BudgetExceeded {
				t.Fatalf("iter %d call %d: outcome exh:%v bud:%v, want exhausted within budget",
					iter, call, res.Exhausted, res.BudgetExceeded)
			}
			got := witnessKeys(t, res.Witnesses, vars)
			want := bruteKeys(g, vars)
			if !equalKeys(got, want) {
				t.Fatalf("iter %d call %d: %d projected witnesses, brute force %d",
					iter, call, len(got), len(want))
			}
		}
	}
}

// bruteKeys returns the sorted distinct projections onto vars of the
// models of f, enumerated by brute force.
func bruteKeys(f *cnf.Formula, vars []cnf.Var) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range sat.BruteForceModels(f) {
		if k := m.Project(vars); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// emptyRowHash builds a hash whose single row has no variables —
// exactly what hashfam.Draw emits with probability 2^-|S| per row.
func emptyRowHash(vars []cnf.Var, rhs bool) *hashfam.Hash {
	return &hashfam.Hash{
		Vars: vars,
		Rows: []gf2.Row{{Bits: make([]uint64, gf2.Words(len(vars))), RHS: rhs}},
	}
}

// TestEmptyHashRow is the regression test for the drawn-empty-row edge:
// a row with no variables and RHS=true is an immediate 0=1 — the cell
// must come back provably empty (Exhausted, zero witnesses) without the
// solver stumbling into the contradiction, and the session must survive
// to serve later calls. With RHS=false the row is a tautology and must
// not change the enumeration.
func TestEmptyHashRow(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4}
	vars := f.SamplingVars()
	sess := NewSession(f, Options{})

	res := sess.Enumerate(100, emptyRowHash(vars, true))
	if !res.Exhausted || len(res.Witnesses) != 0 || res.BudgetExceeded {
		t.Fatalf("0=1 row: got %d witnesses, exhausted=%v", len(res.Witnesses), res.Exhausted)
	}

	// Tautological empty row: same witnesses as no hash at all.
	base := sess.Enumerate(100, nil)
	taut := sess.Enumerate(100, emptyRowHash(vars, false))
	if !taut.Exhausted || !equalKeys(
		witnessKeys(t, taut.Witnesses, vars),
		witnessKeys(t, base.Witnesses, vars)) {
		t.Fatal("0=0 row changed the enumeration")
	}

	// A mixed hash where a later row is 0=1 must also fail the cell
	// fast, after earlier rows were installed.
	mixed := &hashfam.Hash{Vars: vars, Rows: make([]gf2.Row, 2)}
	r0 := gf2.NewRow(len(vars))
	r0.Set(0)
	r0.Set(1)
	mixed.Rows[0] = r0
	mixed.Rows[1] = gf2.Row{Bits: make([]uint64, gf2.Words(len(vars))), RHS: true}
	res = sess.Enumerate(100, mixed)
	if !res.Exhausted || len(res.Witnesses) != 0 {
		t.Fatalf("mixed 0=1 hash: got %d witnesses", len(res.Witnesses))
	}

	// The session stays healthy afterwards.
	after := sess.Enumerate(100, nil)
	if !after.Exhausted || len(after.Witnesses) != len(base.Witnesses) {
		t.Fatal("session unhealthy after empty-row cells")
	}
}
