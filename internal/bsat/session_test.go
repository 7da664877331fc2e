package bsat

import (
	"sort"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// randomFormula builds a random 3-CNF (optionally with an XOR clause or
// two) over n vars, with a random sampling set.
func randomFormula(rng *randx.RNG, n int) *cnf.Formula {
	f := cnf.New(n)
	for i, m := 0, rng.Intn(2*n); i < m; i++ {
		c := make(cnf.Clause, 0, 3)
		for j := 0; j < 3; j++ {
			c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
		}
		f.AddClauseLits(c)
	}
	for i, m := 0, rng.Intn(2); i < m; i++ {
		var vs []cnf.Var
		for v := 1; v <= n; v++ {
			if rng.Bool() {
				vs = append(vs, cnf.Var(v))
			}
		}
		if len(vs) >= 2 {
			f.AddXOR(vs, rng.Bool())
		}
	}
	if rng.Bool() {
		var ss []cnf.Var
		for v := 1; v <= n; v++ {
			if rng.Bool() {
				ss = append(ss, cnf.Var(v))
			}
		}
		if len(ss) > 0 {
			f.SamplingSet = ss
		}
	}
	return f
}

func witnessKeys(t *testing.T, ws []cnf.Assignment, vars []cnf.Var) []string {
	t.Helper()
	keys := make([]string, 0, len(ws))
	seen := map[string]bool{}
	for _, w := range ws {
		k := w.Project(vars)
		if seen[k] {
			t.Fatal("duplicate projected witness within one enumeration")
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSessionMatchesEnumerate is the differential property test of the
// incremental engine: one Session serving a whole sequence of hash
// cells (interleaved with hash-free calls) must report exactly the same
// projected witness sets, Exhausted, and BudgetExceeded outcomes as a
// fresh stateless Enumerate for every call.
func TestSessionMatchesEnumerate(t *testing.T) {
	rng := randx.New(0x5e55)
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(6)
		f := randomFormula(rng, n)
		vars := f.SamplingVars()
		bound := (1 << uint(len(vars))) + 1 // enough to always exhaust
		opts := Options{Solver: sat.Config{Seed: uint64(iter)}}
		sess := NewSession(f, opts)
		for call, calls := 0, 3+rng.Intn(8); call < calls; call++ {
			var h *hashfam.Hash
			if rng.Intn(4) != 0 {
				h = hashfam.Draw(rng, vars, 1+rng.Intn(len(vars)))
			}
			got := sess.Enumerate(bound, h)
			o := opts
			o.Hash = h
			want := Enumerate(f, bound, o)
			if got.Exhausted != want.Exhausted || got.BudgetExceeded != want.BudgetExceeded {
				t.Fatalf("iter %d call %d: flags (exhausted %v, budget %v), want (%v, %v)",
					iter, call, got.Exhausted, got.BudgetExceeded,
					want.Exhausted, want.BudgetExceeded)
			}
			gk := witnessKeys(t, got.Witnesses, vars)
			wk := witnessKeys(t, want.Witnesses, vars)
			if !equalKeys(gk, wk) {
				t.Fatalf("iter %d call %d: session found %d witnesses, fresh %d (m=%v)\n%s",
					iter, call, len(gk), len(wk), h != nil, cnf.DIMACSString(f))
			}
			for wi, w := range got.Witnesses {
				if !w.Satisfies(f) {
					t.Fatalf("iter %d call %d: session witness %d violates F", iter, call, wi)
				}
				if h != nil && !h.Evaluate(w) {
					t.Fatalf("iter %d call %d: session witness %d outside hash cell", iter, call, wi)
				}
			}
		}
	}
}

// TestSessionBoundedEnumeration: when the bound cuts enumeration short,
// both engines return exactly n valid, distinct witnesses (the sets may
// legitimately differ).
func TestSessionBoundedEnumeration(t *testing.T) {
	rng := randx.New(0xb0b0)
	for iter := 0; iter < 30; iter++ {
		n := 5 + rng.Intn(5)
		f := cnf.New(n)
		f.AddClause(1, 2) // keep it easy: near-2^n witnesses
		vars := f.SamplingVars()
		bound := 3 + rng.Intn(4)
		sess := NewSession(f, Options{})
		for call := 0; call < 4; call++ {
			h := hashfam.Draw(rng, vars, 1)
			got := sess.Enumerate(bound, h)
			want := Enumerate(f, bound, Options{Hash: h})
			if len(got.Witnesses) != len(want.Witnesses) {
				t.Fatalf("iter %d call %d: session %d witnesses, fresh %d",
					iter, call, len(got.Witnesses), len(want.Witnesses))
			}
			if got.Exhausted != want.Exhausted {
				t.Fatalf("iter %d call %d: exhausted %v, want %v",
					iter, call, got.Exhausted, want.Exhausted)
			}
			witnessKeys(t, got.Witnesses, vars) // distinctness
			for _, w := range got.Witnesses {
				if !w.Satisfies(f) || !h.Evaluate(w) {
					t.Fatalf("iter %d call %d: invalid witness", iter, call)
				}
			}
		}
	}
}

// TestSessionBudgetExceeded: conflict/propagation budgets flow through
// the session exactly as through the stateless path.
func TestSessionBudgetExceeded(t *testing.T) {
	rng := randx.New(14)
	n := 40
	f := cnf.New(n)
	for i := 0; i < 170; i++ {
		c := make(cnf.Clause, 0, 3)
		for j := 0; j < 3; j++ {
			c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
		}
		f.AddClauseLits(c)
	}
	opts := Options{Solver: sat.Config{MaxPropagations: 1}}
	sess := NewSession(f, opts)
	got := sess.Enumerate(1<<20, nil)
	want := Enumerate(f, 1<<20, opts)
	if !got.BudgetExceeded || !want.BudgetExceeded {
		t.Fatalf("budget flags: session %v, fresh %v, want both true",
			got.BudgetExceeded, want.BudgetExceeded)
	}
}

// TestSessionUnsatFormula: sessions report UNSAT formulas as exhausted
// with no witnesses, like the stateless path, call after call.
func TestSessionUnsatFormula(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	sess := NewSession(f, Options{})
	for call := 0; call < 3; call++ {
		res := sess.Enumerate(10, nil)
		if len(res.Witnesses) != 0 || !res.Exhausted {
			t.Fatalf("call %d: %d witnesses, exhausted=%v", call, len(res.Witnesses), res.Exhausted)
		}
	}
}

// TestSessionRebuildKeepsContract: after a solver rebuild (the
// taint/threshold escape hatch) the session must keep truncating
// witnesses to the base formula's variables and enumerating correctly.
func TestSessionRebuildKeepsContract(t *testing.T) {
	rng := randx.New(0x4eb1)
	f := cnf.New(6)
	f.AddClause(1, 2)
	vars := f.SamplingVars()
	sess := NewSession(f, Options{})
	h := hashfam.Draw(rng, vars, 2)
	before := sess.Enumerate(1<<7, h)
	sess.rebuild()
	after := sess.Enumerate(1<<7, h)
	if !equalKeys(witnessKeys(t, before.Witnesses, vars), witnessKeys(t, after.Witnesses, vars)) {
		t.Fatal("witness set changed across a rebuild with the same hash")
	}
	for _, w := range after.Witnesses {
		if len(w) != f.NumVars+1 {
			t.Fatalf("witness length %d after rebuild, want %d", len(w), f.NumVars+1)
		}
	}
	if !after.Exhausted {
		t.Fatal("post-rebuild enumeration not exhausted")
	}
}

// TestSessionStatsDelta: per-call stats are deltas, not cumulative.
func TestSessionStatsDelta(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, 2, 3)
	sess := NewSession(f, Options{})
	r1 := sess.Enumerate(1<<7, nil)
	r2 := sess.Enumerate(1<<7, nil)
	if r1.Stats[tally.Decisions] == 0 {
		t.Fatal("first call reported zero decisions")
	}
	if r2.Stats[tally.Decisions] < 0 || r2.Stats[tally.Propagations] < 0 {
		t.Fatal("negative per-call stats delta")
	}
}
