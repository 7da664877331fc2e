package bsat

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
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

// TestSessionOddSamplingSets: a sampling set that names a variable
// twice, and one that names none ("project onto nothing"), still give
// witnesses distinct on the set, in a session as in the stateless
// engine. The session's priority variables must be the set itself:
// the first is as long as the variable count, and the second is empty.
func TestSessionOddSamplingSets(t *testing.T) {
	for _, ss := range [][]cnf.Var{{1, 1, 2}, {}} {
		f := cnf.New(3)
		f.AddClause(1, 2, 3)
		f.SamplingSet = ss
		want := bruteKeys(f, ss)
		sess := NewSession(f, Options{})
		for call := 0; call < 2; call++ {
			got := sess.Enumerate(16, nil)
			if gk := witnessKeys(t, got.Witnesses, ss); !got.Exhausted || !equalKeys(gk, want) {
				t.Fatalf("sampling set %v, call %d: session found %q (exhausted %v), want %q", ss, call, gk, got.Exhausted, want)
			}
		}
		if gk := witnessKeys(t, Enumerate(f, 16, Options{}).Witnesses, ss); !equalKeys(gk, want) {
			t.Fatalf("sampling set %v: stateless Enumerate found %q, want %q", ss, gk, want)
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

// TestSessionRebuildsPastSelectorBound runs one session past
// rebuildEvery selectors. The rebuild fires at the first call after
// the solver holds that many variables beyond the formula's, and the
// cells of the 20 or so calls on each side of it match the stateless
// Enumerate.
func TestSessionRebuildsPastSelectorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("2^15 selectors: a few seconds")
	}
	// Sixteen variables under twelve hash rows leave a few witnesses in
	// most cells, so no cell taints the solver and forces an earlier
	// rebuild; each call adds 13 selectors.
	f := cnf.New(16)
	f.AddClause(1, 2, -3)
	f.AddClause(-1, 4, 5)
	f.AddXOR([]cnf.Var{2, 5, 6}, true)
	vars := f.SamplingVars()
	rng := randx.New(0x5e1)
	sess := NewSession(f, Options{})
	rebuilt := -1
	for call := 0; rebuilt < 0 || call < rebuilt+20; call++ {
		if call == 1<<16 {
			t.Fatalf("no rebuild in %d calls", call)
		}
		prev, sels := sess.s, sess.s.NumVars()-f.NumVars
		tainted := prev.Tainted()
		h := hashfam.Draw(rng, vars, 12)
		got := sess.Enumerate(1<<len(vars), h)
		switch due := sels >= rebuildEvery; {
		case sess.s != prev && !due && !tainted:
			t.Fatalf("call %d: rebuilt at %d selectors", call, sels)
		case sess.s == prev && due:
			t.Fatalf("call %d: no rebuild at %d selectors", call, sels)
		case due:
			rebuilt = call
		}
		if rebuilt < 0 && sels < rebuildEvery-20*13 {
			continue
		}
		want := Enumerate(f, 1<<len(vars), Options{Hash: h})
		if got.Exhausted != want.Exhausted ||
			!equalKeys(witnessKeys(t, got.Witnesses, vars), witnessKeys(t, want.Witnesses, vars)) {
			t.Fatalf("call %d (rebuild at %d): session found %d witnesses, stateless %d",
				call, rebuilt, len(got.Witnesses), len(want.Witnesses))
		}
	}
	if n := sess.s.NumVars() - f.NumVars; n >= rebuildEvery/2 {
		t.Fatalf("%d selectors 20 calls after the rebuild", n)
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

// memberKeys returns m's members as sorted strings, failing on a
// duplicate.
func memberKeys(t *testing.T, m *Members) []string {
	t.Helper()
	w := gf2.Words(len(m.Vars))
	keys := make([]string, 0, m.Len())
	seen := map[string]bool{}
	for k := 0; k < len(m.List); k += w {
		key := fmt.Sprint(m.List[k : k+w])
		if seen[key] {
			t.Fatal("duplicate member in one list")
		}
		seen[key] = true
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// TestCountKnownMembers: Count started from some known members of a
// cell returns the capped count that Count from nothing returns and,
// when the cell is exhausted, the same member set; with n or more
// known members it returns n and the solver's stats do not move.
// Members are packed over a permutation of the sampling set, so the
// clauses blocking them must range over the members' own variables.
func TestCountKnownMembers(t *testing.T) {
	rng := randx.New(0xc0de)
	capped := 0
	for iter := 0; iter < 60; iter++ {
		f := randomFormula(rng, 4+rng.Intn(6))
		perm := rng.Perm(len(f.SamplingVars()))
		vars := make([]cnf.Var, len(perm))
		for c, j := range perm {
			vars[c] = f.SamplingVars()[j]
		}
		w := gf2.Words(len(vars))
		all := 1<<len(vars) + 1 // enough to exhaust any cell
		sess := NewSession(f, Options{Solver: sat.Config{Seed: uint64(iter)}})
		for call := 0; call < 4; call++ {
			var h *hashfam.Hash
			if rng.Intn(3) != 0 {
				h = hashfam.Draw(rng, f.SamplingVars(), 1+rng.Intn(2))
			}
			ref := Members{Vars: vars}
			want, _ := sess.Count(all, h, &ref)
			if ref.Len() != want {
				t.Fatalf("iter %d call %d: %d members recorded for a count of %d", iter, call, ref.Len(), want)
			}
			var known []uint64
			for k := 0; k < len(ref.List); k += w {
				if rng.Bool() {
					known = append(known, ref.List[k:k+w]...)
				}
			}
			got := Members{Vars: vars, List: slices.Clone(known)}
			n, res := sess.Count(all, h, &got)
			if n != want || !res.Exhausted || !equalKeys(memberKeys(t, &got), memberKeys(t, &ref)) {
				t.Fatalf("iter %d call %d: from %d known members counted %d (exhausted %v), from none %d; same set %v",
					iter, call, len(known)/w, n, res.Exhausted, want, equalKeys(memberKeys(t, &got), memberKeys(t, &ref)))
			}
			if k := len(known) / w; want > k+1 {
				bound := k + 1 + rng.Intn(want-k-1)
				cold, _ := sess.Count(bound, h, nil)
				part := Members{Vars: vars, List: slices.Clone(known)}
				n, _ := sess.Count(bound, h, &part)
				if n != cold || n != bound || part.Len() != bound {
					t.Fatalf("iter %d call %d: capped at %d from %d known: %d (%d members), from none %d",
						iter, call, bound, k, n, part.Len(), cold)
				}
				inRef := map[string]bool{}
				for _, key := range memberKeys(t, &ref) {
					inRef[key] = true
				}
				for _, key := range memberKeys(t, &part) {
					if !inRef[key] {
						t.Fatalf("iter %d call %d: capped count recorded %s, not a member of the cell", iter, call, key)
					}
				}
				capped++
			}
			if k := len(known) / w; k > 0 {
				bound := 1 + rng.Intn(k) // at most k: enough members are known
				before := sess.s.Stats()
				full := Members{Vars: vars, List: slices.Clone(known)}
				n, res := sess.Count(bound, h, &full)
				if n != bound {
					t.Fatalf("iter %d call %d: capped at %d with %d known members: %d", iter, call, bound, k, n)
				}
				if sess.s.Stats() != before || res.Stats != (tally.Vec{}) || !slices.Equal(full.List, known) {
					t.Fatalf("iter %d call %d: a count with enough known members moved the solver or the list", iter, call)
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no capped count started from known members")
	}
}

// TestEnumerateKnownMatchesStateless: EnumerateKnown started from a
// random subset of a cell's members, as the stateless Enumerate finds
// the cell, finds only the rest. Exhausted, the witnesses it found and
// the known members make up the stateless set, with no found witness a
// known one; capped at n, it returns n and finds n minus the known
// members; every witness it finds satisfies F ∧ h; and with at least
// n known members it returns n, finds nothing and moves no solver stat.
func TestEnumerateKnownMatchesStateless(t *testing.T) {
	rng := randx.New(0x4b0e)
	capped := 0
	for iter := 0; iter < 60; iter++ {
		f := randomFormula(rng, 4+rng.Intn(6))
		vars := f.SamplingVars()
		all := 1<<len(vars) + 1 // enough to exhaust any cell
		sess := NewSession(f, Options{Solver: sat.Config{Seed: uint64(iter)}})
		for call := 0; call < 4; call++ {
			var h *hashfam.Hash
			if rng.Intn(3) != 0 {
				h = hashfam.Draw(rng, vars, 1+rng.Intn(len(vars)))
			}
			cell := Enumerate(f, all, Options{Hash: h}).Witnesses
			inCell := map[string]bool{}
			for _, key := range witnessKeys(t, cell, vars) {
				inCell[key] = true
			}
			known := Members{Vars: vars}
			isKnown := map[string]bool{}
			for _, w := range cell {
				if rng.Bool() {
					known.Add(w)
					isKnown[w.Project(vars)] = true
				}
			}
			k := known.Len()
			// enumerate runs EnumerateKnown capped at n from the known
			// members and checks what every such call must hold.
			enumerate := func(n int) (int, Result) {
				m := Members{Vars: vars, List: slices.Clone(known.List)}
				got, res := sess.EnumerateKnown(n, h, &m)
				if got != min(n, len(cell)) || (n > k && got != k+len(res.Witnesses)) {
					t.Fatalf("iter %d call %d: capped at %d from %d known: %d, %d found, cell of %d",
						iter, call, n, k, got, len(res.Witnesses), len(cell))
				}
				if n > k && m.Len() != got {
					t.Fatalf("iter %d call %d: %d members listed for %d", iter, call, m.Len(), got)
				}
				for _, key := range witnessKeys(t, res.Witnesses, vars) {
					if isKnown[key] || !inCell[key] {
						t.Fatalf("iter %d call %d: found %x, known %v, in the cell %v", iter, call, key, isKnown[key], inCell[key])
					}
				}
				for _, w := range res.Witnesses {
					if !w.Satisfies(f) || (h != nil && !h.Evaluate(w)) {
						t.Fatalf("iter %d call %d: found a witness outside F ∧ h", iter, call)
					}
				}
				return got, res
			}
			if _, res := enumerate(all); !res.Exhausted {
				t.Fatalf("iter %d call %d: not exhausted", iter, call)
			}
			if len(cell) > k+1 {
				enumerate(k + 1 + rng.Intn(len(cell)-k-1))
				capped++
			}
			if k > 0 {
				before := sess.s.Stats()
				n := 1 + rng.Intn(k) // at most k: enough members are known
				if _, res := enumerate(n); len(res.Witnesses) != 0 || res.Stats != (tally.Vec{}) || sess.s.Stats() != before {
					t.Fatalf("iter %d call %d: a call with enough known members found %d or moved the solver", iter, call, len(res.Witnesses))
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no capped call started from known members")
	}
}
