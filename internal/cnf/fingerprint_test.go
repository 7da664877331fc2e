package cnf_test

import (
	"testing"

	"unigen/internal/cnf"
)

func TestFingerprintInvariantUnderPresentation(t *testing.T) {
	a, err := cnf.ParseDIMACSString("c ind 1 2 3 0\np cnf 4 3\n1 -2 3 0\n-1 4 0\n2 3 0\nx1 2 -4 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// Same formula: clauses reordered, literals permuted and duplicated,
	// a tautology added, XOR written with the RHS sign on another
	// literal, sampling set declared in a different order.
	b, err := cnf.ParseDIMACSString("c ind 3 1 0\nc ind 2 0\np cnf 4 4\n2 3 3 0\n4 -1 0\n3 1 -2 1 0\n2 -2 4 0\nx-2 4 1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if cnf.Fingerprint(a) != cnf.Fingerprint(b) {
		t.Fatal("equivalent presentations fingerprint differently")
	}
	if cnf.FingerprintString(a) != cnf.FingerprintString(b) {
		t.Fatal("FingerprintString differs")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := "p cnf 3 2\n1 2 0\n-1 3 0\n"
	a, _ := cnf.ParseDIMACSString(base)
	variants := map[string]string{
		"extra clause":      base + "2 3 0\n",
		"different var cap": "p cnf 4 2\n1 2 0\n-1 3 0\n",
		"added xor":         base + "x1 2 0\n",
		"flipped xor rhs":   base + "x-1 2 0\n",
		"sampling set":      "c ind 1 2 0\n" + base,
	}
	seen := map[[32]byte]string{cnf.Fingerprint(a): "base"}
	for name, text := range variants {
		f, err := cnf.ParseDIMACSString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := cnf.Fingerprint(f)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

func TestFingerprintEmptySamplingSetDistinctFromNil(t *testing.T) {
	a := cnf.New(2)
	a.AddClause(1, 2)
	b := a.Clone()
	b.SamplingSet = []cnf.Var{} // "project onto nothing" ≠ "unspecified"
	if cnf.Fingerprint(a) == cnf.Fingerprint(b) {
		t.Fatal("nil and empty sampling sets fingerprint identically")
	}
}

func TestFingerprintDoesNotMutate(t *testing.T) {
	f, _ := cnf.ParseDIMACSString("c ind 2 1 0\np cnf 3 2\n3 1 0\n-2 1 0\nx3 1 0\n")
	before := cnf.DIMACSString(f)
	cnf.Fingerprint(f)
	if cnf.DIMACSString(f) != before {
		t.Fatal("Fingerprint mutated its input")
	}
}
