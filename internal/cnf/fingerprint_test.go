package cnf_test

import (
	"strings"
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

// pinnedFormula has every feature Canonical normalizes: a sampling set
// of more than ten variables, unsorted and with a repeat; duplicate,
// permuted and tautological clauses; XOR clauses of both parities, one
// of them twice and one written with a repeated variable; and a 0 = 1
// XOR, which canonicalizes to the empty clause.
func pinnedFormula() *cnf.Formula {
	f := cnf.New(14)
	f.SamplingSet = []cnf.Var{12, 3, 1, 14, 2, 9, 3, 5, 11, 7, 10, 4}
	lit := cnf.FromDIMACS
	f.Clauses = []cnf.Clause{
		{lit(3), lit(-1), lit(2)},
		{lit(-4), lit(13)},
		{lit(2), lit(-1), lit(3), lit(3)},
		{lit(5), lit(-5), lit(6)},
		{lit(-13), lit(-4)},
		{lit(-4), lit(13)},
		{lit(8)},
	}
	f.XORs = []cnf.XORClause{
		{Vars: []cnf.Var{7, 2, 11}, RHS: false},
		{Vars: []cnf.Var{6, 6}, RHS: true},
		{Vars: []cnf.Var{1, 4}, RHS: true},
		{Vars: []cnf.Var{11, 7, 2}, RHS: false},
		{Vars: []cnf.Var{4, 1, 9, 9}, RHS: false},
		{Vars: []cnf.Var{2, 7, 11}, RHS: true},
	}
	return f
}

// TestWriteCanonicalPinnedText pins the exact bytes WriteCanonical
// writes, and so every fingerprint and every setup frame's formula
// text: a change to Canonical or WriteDIMACS must leave them as they
// are.
func TestWriteCanonicalPinnedText(t *testing.T) {
	var sb strings.Builder
	if err := cnf.WriteCanonical(&sb, pinnedFormula()); err != nil {
		t.Fatal(err)
	}
	const want = "\x01c ind 1 2 3 4 5 7 9 10 11 12 0\nc ind 14 0\n" +
		"p cnf 14 5\n0\n-1 2 3 0\n-4 13 0\n-4 -13 0\n8 0\n" +
		"x-1 4 0\nx1 4 0\nx-2 7 11 0\nx2 7 11 0\n"
	if got := sb.String(); got != want {
		t.Fatalf("WriteCanonical wrote\n%q\nwant\n%q", got, want)
	}
	const fp = "269955cb5fb0377d3c5948de221f753980306454cdd0be6ee67bbc576552edd4"
	if got := cnf.FingerprintString(pinnedFormula()); got != fp {
		t.Fatalf("fingerprint %s, want %s", got, fp)
	}
}
