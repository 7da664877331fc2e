package sat

import (
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

func TestProofUnsatPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons, 3 holes — classically UNSAT with real
	// resolution work. Var(p,h) = 3p + h + 1 for p in 0..3, h in 0..2.
	f := cnf.New(12)
	v := func(p, h int) int { return 3*p + h + 1 }
	for p := 0; p < 4; p++ {
		f.AddClause(v(p, 0), v(p, 1), v(p, 2))
	}
	for h := 0; h < 3; h++ {
		for p1 := 0; p1 < 4; p1++ {
			for p2 := p1 + 1; p2 < 4; p2++ {
				f.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	s := New(f, Config{RecordProof: true})
	if s.Solve() != Unsat {
		t.Fatal("PHP(4,3) must be UNSAT")
	}
	proof := s.Proof()
	if len(proof) == 0 {
		t.Fatal("no proof recorded")
	}
	last := proof[len(proof)-1]
	if last.Kind != StepLemma || len(last.Lits) != 0 {
		t.Fatalf("proof does not end with the empty lemma: %+v", last)
	}
	if err := CheckRUPProof(f, proof); err != nil {
		t.Fatalf("proof check failed: %v", err)
	}
}

func TestProofRandomUnsat(t *testing.T) {
	rng := randx.New(401)
	checked := 0
	for iter := 0; iter < 120 && checked < 15; iter++ {
		n := 6 + rng.Intn(6)
		f := randomCNF(rng, n, 6*n, 3) // over-constrained: usually UNSAT
		s := New(f, Config{RecordProof: true, Seed: uint64(iter)})
		if s.Solve() != Unsat {
			continue
		}
		if err := CheckRUPProof(f, s.Proof()); err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, cnf.DIMACSString(f))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no UNSAT instances generated")
	}
}

func TestProofWithXORs(t *testing.T) {
	// UNSAT XOR system solved without Gauss (proof mode disables it).
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2}, true)
	f.AddXOR([]cnf.Var{2, 3}, true)
	f.AddXOR([]cnf.Var{3, 1}, true)                           // sums to 0 = 1: UNSAT
	s := New(f, Config{RecordProof: true, GaussJordan: true}) // gauss auto-disabled
	if s.Solve() != Unsat {
		t.Fatal("odd XOR cycle must be UNSAT")
	}
	if err := CheckRUPProof(f, s.Proof()); err != nil {
		t.Fatalf("xor proof check failed: %v", err)
	}
}

func TestProofWithMidSearchAxioms(t *testing.T) {
	// Enumerate all models with blocking clauses, then verify the final
	// UNSAT proof (blocking clauses appear as axioms in the trace).
	f := cnf.New(3)
	f.AddClause(1, 2)
	s := New(f, Config{RecordProof: true})
	for {
		st := s.Solve()
		if st == Unsat {
			break
		}
		if st != Sat {
			t.Fatalf("unexpected %v", st)
		}
		m := s.Model()
		block := make(cnf.Clause, 0, 3)
		for v := cnf.Var(1); v <= 3; v++ {
			block = append(block, cnf.MkLit(v, m.Get(v)))
		}
		if !s.AddClause(block) {
			break
		}
	}
	if err := CheckRUPProof(f, s.Proof()); err != nil {
		t.Fatalf("enumeration proof check failed: %v", err)
	}
}

func TestProofCheckerRejectsBogusLemma(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	bogus := []ProofStep{{Kind: StepLemma, Lits: []cnf.Lit{cnf.MkLit(3, false)}}}
	if err := CheckRUPProof(f, bogus); err == nil {
		t.Fatal("bogus lemma accepted")
	}
}

// TestProofCheckerRequiresRefutation: a trace of sound lemmas that
// never derives the empty clause proves nothing, so it must not pass
// as an UNSAT certificate, not even the empty trace.
func TestProofCheckerRequiresRefutation(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2)
	f.AddClause(-1, 2)
	traces := map[string][]ProofStep{
		"empty":      nil,
		"lemma-only": {{Kind: StepLemma, Lits: []cnf.Lit{cnf.MkLit(2, false)}}}, // (x2) is RUP
	}
	for name, steps := range traces {
		if err := CheckRUPProof(f, steps); err == nil {
			t.Fatalf("%s trace accepted as a refutation of a satisfiable formula", name)
		}
	}
}

func TestProofEmptyWhenDisabled(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1)
	s := New(f, Config{})
	s.Solve()
	if len(s.Proof()) != 0 {
		t.Fatal("proof recorded without RecordProof")
	}
}
