package sat

import (
	"testing"
	"testing/quick"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

func mustParse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACSString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestSolveTrivialSat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2)
	f.AddClause(-1, 2)
	s := New(f, Config{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	if !m.Satisfies(f) {
		t.Fatalf("model %v does not satisfy formula", m)
	}
}

func TestSolveTrivialUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	s := New(f, Config{})
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
}

func TestSolveEmptyClause(t *testing.T) {
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	s := New(f, Config{})
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want UNSAT", got)
	}
}

func TestSolveEmptyFormula(t *testing.T) {
	f := cnf.New(3)
	s := New(f, Config{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want SAT (empty formula)", got)
	}
}

func TestUnitPropagationChain(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1)
	f.AddClause(-1, 2)
	f.AddClause(-2, 3)
	f.AddClause(-3, 4)
	s := New(f, Config{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	m := s.Model()
	for v := cnf.Var(1); v <= 4; v++ {
		if !m.Get(v) {
			t.Errorf("var %d = false, want true", v)
		}
	}
}

func TestXORUnsat(t *testing.T) {
	// x1⊕x2 = 1 and x1⊕x2 = 0 is UNSAT.
	f := cnf.New(2)
	f.AddXOR([]cnf.Var{1, 2}, true)
	f.AddXOR([]cnf.Var{1, 2}, false)
	for _, gj := range []bool{false, true} {
		s := New(f, Config{GaussJordan: gj})
		if got := s.Solve(); got != Unsat {
			t.Errorf("GaussJordan=%v: Solve = %v, want UNSAT", gj, got)
		}
	}
}

func TestXORChainSat(t *testing.T) {
	// x1⊕x2=1, x2⊕x3=1, x3⊕x1=0 is SAT (x1 != x2, x2 != x3 => x1 == x3).
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2}, true)
	f.AddXOR([]cnf.Var{2, 3}, true)
	f.AddXOR([]cnf.Var{3, 1}, false)
	for _, gj := range []bool{false, true} {
		s := New(f, Config{GaussJordan: gj})
		if got := s.Solve(); got != Sat {
			t.Fatalf("GaussJordan=%v: Solve = %v, want SAT", gj, got)
		}
		if m := s.Model(); !m.Satisfies(f) {
			t.Fatalf("GaussJordan=%v: bad model %v", gj, m)
		}
	}
}

func TestXORChainUnsatOddCycle(t *testing.T) {
	// x1⊕x2=1, x2⊕x3=1, x3⊕x1=1 sums to 0=1: UNSAT.
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2}, true)
	f.AddXOR([]cnf.Var{2, 3}, true)
	f.AddXOR([]cnf.Var{3, 1}, true)
	for _, gj := range []bool{false, true} {
		s := New(f, Config{GaussJordan: gj})
		if got := s.Solve(); got != Unsat {
			t.Errorf("GaussJordan=%v: Solve = %v, want UNSAT", gj, got)
		}
	}
}

func TestXORWithCNFMix(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-1, 3)
	f.AddXOR([]cnf.Var{1, 2, 3, 4}, true)
	s := New(f, Config{})
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want SAT", got)
	}
	if m := s.Model(); !m.Satisfies(f) {
		t.Fatalf("bad model %v", m)
	}
}

func TestAssumptions(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	if got := s.Solve(cnf.MkLit(1, true), cnf.MkLit(2, true)); got != Sat {
		t.Fatalf("Solve under assumptions = %v, want SAT", got)
	}
	m := s.Model()
	if m.Get(1) || m.Get(2) || !m.Get(3) {
		t.Fatalf("model %v violates assumptions", m)
	}
	// Contradictory assumption set.
	if got := s.Solve(cnf.MkLit(1, false), cnf.MkLit(1, true)); got != Unsat {
		t.Fatalf("contradictory assumptions = %v, want UNSAT", got)
	}
	// Solver must remain usable.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve after assumption UNSAT = %v, want SAT", got)
	}
}

func TestIncrementalBlocking(t *testing.T) {
	// Enumerate all models of a formula by blocking, counting them.
	f := cnf.New(3)
	f.AddClause(1, 2, 3)
	want := BruteForceCount(f)
	s := New(f, Config{})
	n := 0
	for {
		st := s.Solve()
		if st == Unsat {
			break
		}
		if st != Sat {
			t.Fatalf("unexpected status %v", st)
		}
		n++
		if n > want {
			t.Fatalf("enumerated more than %d models", want)
		}
		m := s.Model()
		if !m.Satisfies(f) {
			t.Fatalf("bad model %v", m)
		}
		block := make(cnf.Clause, 0, 3)
		for v := cnf.Var(1); v <= 3; v++ {
			block = append(block, cnf.MkLit(v, m.Get(v)))
		}
		if !s.AddClause(block) {
			break
		}
	}
	if n != want {
		t.Fatalf("enumerated %d models, want %d", n, want)
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard-ish random 3-CNF at the phase transition with a tiny budget
	// should return Unknown (or decide very fast; accept any status but
	// verify budget accounting).
	rng := randx.New(7)
	f := randomCNF(rng, 60, 256, 3)
	s := New(f, Config{MaxConflicts: 1})
	_ = s.Solve()
	if s.Stats()[tally.Conflicts] > 2 {
		t.Fatalf("budget 1 exceeded: %d conflicts", s.Stats()[tally.Conflicts])
	}
}

// randomCNF generates a uniform random k-CNF over n vars with m clauses.
func randomCNF(rng *randx.RNG, n, m, k int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < m; i++ {
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			v := cnf.Var(rng.Intn(n) + 1)
			c = append(c, cnf.MkLit(v, rng.Bool()))
		}
		f.AddClauseLits(c)
	}
	return f
}

// randomXORCNF adds random XOR clauses on top of a random CNF.
func randomXORCNF(rng *randx.RNG, n, m, k, nx int) *cnf.Formula {
	f := randomCNF(rng, n, m, k)
	for i := 0; i < nx; i++ {
		var vs []cnf.Var
		for v := 1; v <= n; v++ {
			if rng.Bool() {
				vs = append(vs, cnf.Var(v))
			}
		}
		if len(vs) == 0 {
			continue
		}
		f.AddXOR(vs, rng.Bool())
	}
	return f
}

func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := randx.New(42)
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(9)
		m := 1 + rng.Intn(4*n)
		f := randomCNF(rng, n, m, 3)
		want := BruteForceCount(f) > 0
		s := New(f, Config{Seed: uint64(iter)})
		st := s.Solve()
		if (st == Sat) != want {
			t.Fatalf("iter %d: Solve=%v, brute force sat=%v\n%s", iter, st, want, cnf.DIMACSString(f))
		}
		if st == Sat {
			if m := s.Model(); !m.Satisfies(f) {
				t.Fatalf("iter %d: invalid model", iter)
			}
		}
	}
}

func TestRandomXORCNFAgainstBruteForce(t *testing.T) {
	rng := randx.New(99)
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(9)
		m := rng.Intn(3 * n)
		nx := 1 + rng.Intn(n)
		f := randomXORCNF(rng, n, m, 3, nx)
		want := BruteForceCount(f) > 0
		for _, gj := range []bool{false, true} {
			s := New(f, Config{Seed: uint64(iter), GaussJordan: gj})
			st := s.Solve()
			if (st == Sat) != want {
				t.Fatalf("iter %d gj=%v: Solve=%v, brute force sat=%v\n%s",
					iter, gj, st, want, cnf.DIMACSString(f))
			}
			if st == Sat {
				if m := s.Model(); !m.Satisfies(f) {
					t.Fatalf("iter %d gj=%v: invalid model", iter, gj)
				}
			}
		}
	}
}

func TestEnumerationMatchesBruteForce(t *testing.T) {
	// Full model enumeration via blocking clauses must find exactly the
	// brute-force model set, including with XORs present.
	rng := randx.New(1234)
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(7)
		f := randomXORCNF(rng, n, rng.Intn(2*n), 3, rng.Intn(3))
		want := map[string]struct{}{}
		allVars := f.SamplingVars()
		for _, m := range BruteForceModels(f) {
			want[m.Project(allVars)] = struct{}{}
		}
		got := map[string]struct{}{}
		s := New(f, Config{Seed: uint64(iter)})
		for {
			if s.Solve() != Sat {
				break
			}
			m := s.Model()
			key := m.Project(allVars)
			if _, dup := got[key]; dup {
				t.Fatalf("iter %d: duplicate model", iter)
			}
			got[key] = struct{}{}
			block := make(cnf.Clause, 0, n)
			for v := cnf.Var(1); v <= cnf.Var(n); v++ {
				block = append(block, cnf.MkLit(v, m.Get(v)))
			}
			if !s.AddClause(block) {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: enumerated %d models, brute force %d\n%s",
				iter, len(got), len(want), cnf.DIMACSString(f))
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Fatalf("iter %d: enumerated a non-model", iter)
			}
		}
	}
}

// TestGaussJordanProperties: Gauss–Jordan preprocessing preserves the
// solution set of an XOR system. The solver eliminates at construction
// (gaussInstallPacked), so the property enumerates New with GaussJordan
// and compares with brute force.
func TestGaussJordanProperties(t *testing.T) {
	check := func(seed uint64) bool {
		rng := randx.New(seed)
		n := 2 + rng.Intn(8)
		nx := 1 + rng.Intn(6)
		f := cnf.New(n)
		for i := 0; i < nx; i++ {
			var vs []cnf.Var
			for v := 1; v <= n; v++ {
				if rng.Bool() {
					vs = append(vs, cnf.Var(v))
				}
			}
			if len(vs) == 0 {
				continue
			}
			f.AddXOR(vs, rng.Bool())
		}
		s := New(f, Config{GaussJordan: true})
		return len(enumerateAll(t, s, f, varsUpTo(n))) == BruteForceCount(f)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLuby(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(2, i); got != w {
			t.Errorf("luby(2,%d) = %v, want %v", i, got, w)
		}
	}
}

func TestSolverReuseAfterManyCalls(t *testing.T) {
	f := mustParse(t, `p cnf 4 2
1 2 0
-3 4 0
`)
	s := New(f, Config{})
	for i := 0; i < 50; i++ {
		if st := s.Solve(); st != Sat {
			t.Fatalf("call %d: %v", i, st)
		}
	}
}
