package unigen

import (
	"testing"

	"unigen/internal/sat"
)

func TestProveUnsat(t *testing.T) {
	f := NewFormula(3)
	f.AddXOR([]Var{1, 2}, true)
	f.AddXOR([]Var{2, 3}, true)
	f.AddXOR([]Var{3, 1}, true)
	unsat, err := ProveUnsat(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !unsat {
		t.Fatal("odd XOR cycle reported SAT")
	}

	g := NewFormula(2)
	g.AddClause(1, 2)
	unsat, err = ProveUnsat(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if unsat {
		t.Fatal("satisfiable formula reported UNSAT")
	}
}

// TestProveUnsatXORConflictAtInstall: units that falsify an XOR row as
// it is installed make the formula UNSAT before any search. ProveUnsat
// must still verify a refutation, and that check must not be vacuous:
// the empty trace is rejected for the same formula.
func TestProveUnsatXORConflictAtInstall(t *testing.T) {
	f := NewFormula(2)
	f.AddClause(1)
	f.AddClause(2)
	f.AddXOR([]Var{1, 2}, true)
	unsat, err := ProveUnsat(f, Options{})
	if err != nil || !unsat {
		t.Fatalf("ProveUnsat = %v, %v; want true, nil", unsat, err)
	}
	if sat.CheckRUPProof(f, nil) == nil {
		t.Fatal("an empty trace passes as a refutation")
	}
}
