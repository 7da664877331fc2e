package cnf

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(1); v <= 100; v++ {
		p := MkLit(v, false)
		n := MkLit(v, true)
		if p.Var() != v || n.Var() != v {
			t.Fatalf("Var mismatch for %d", v)
		}
		if p.Neg() || !n.Neg() {
			t.Fatalf("Neg mismatch for %d", v)
		}
		if p.Not() != n || n.Not() != p {
			t.Fatalf("Not mismatch for %d", v)
		}
		if p.DIMACS() != int(v) || n.DIMACS() != -int(v) {
			t.Fatalf("DIMACS mismatch for %d", v)
		}
	}
}

func TestFromDIMACSRoundTrip(t *testing.T) {
	f := func(x int16) bool {
		if x == 0 {
			return true
		}
		return FromDIMACS(int(x)).DIMACS() == int(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMkLitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MkLit(0) did not panic")
		}
	}()
	MkLit(0, false)
}

func TestNormalizeClause(t *testing.T) {
	c := Clause{FromDIMACS(3), FromDIMACS(1), FromDIMACS(3), FromDIMACS(-2)}
	norm, taut := NormalizeClause(c)
	if taut {
		t.Fatal("unexpected tautology")
	}
	if len(norm) != 3 {
		t.Fatalf("got %d lits, want 3", len(norm))
	}
	_, taut = NormalizeClause(Clause{FromDIMACS(1), FromDIMACS(-1)})
	if !taut {
		t.Fatal("tautology not detected")
	}
	// The buffer-reusing form gives the same clause in the buffer's
	// storage, whatever the buffer held before.
	buf := make(Clause, 1, 8)
	into, taut := NormalizeClauseInto(buf, c)
	if taut || !slices.Equal(into, norm) || &into[0] != &buf[0] {
		t.Fatalf("NormalizeClauseInto = %v, %v; want %v in the buffer", into, taut, norm)
	}
}

func TestNormalizeXOR(t *testing.T) {
	vs, rhs := NormalizeXOR([]Var{1, 2, 1, 3, 2, 2}, true)
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 3 {
		t.Fatalf("got %v, want [2 3]", vs)
	}
	if !rhs {
		t.Fatal("rhs changed unexpectedly")
	}
}

func TestAddXOREmptyCases(t *testing.T) {
	f := New(2)
	f.AddXOR([]Var{1, 1}, false) // tautology: dropped
	if len(f.XORs) != 0 || len(f.Clauses) != 0 {
		t.Fatal("tautological XOR not dropped")
	}
	f.AddXOR([]Var{2, 2}, true) // contradiction: empty clause
	if len(f.Clauses) != 1 || len(f.Clauses[0]) != 0 {
		t.Fatal("contradictory XOR not converted to empty clause")
	}
}

func TestSatisfies(t *testing.T) {
	f := New(3)
	f.AddClause(1, -2)
	f.AddXOR([]Var{1, 3}, true)
	a := NewAssignment(3)
	a.Set(1, true)
	a.Set(3, false)
	if !a.Satisfies(f) {
		t.Fatal("assignment should satisfy")
	}
	a.Set(3, true)
	if a.Satisfies(f) {
		t.Fatal("assignment should violate XOR")
	}
}

func TestDIMACSRoundTrip(t *testing.T) {
	f := New(5)
	f.AddClause(1, -2, 3)
	f.AddClause(-4, 5)
	f.AddXOR([]Var{1, 2, 5}, true)
	f.AddXOR([]Var{3, 4}, false)
	f.SamplingSet = []Var{1, 2, 3}
	s := DIMACSString(f)
	g, err := ParseDIMACSString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if g.NumVars != f.NumVars {
		t.Fatalf("NumVars = %d, want %d", g.NumVars, f.NumVars)
	}
	if len(g.Clauses) != len(f.Clauses) || len(g.XORs) != len(f.XORs) {
		t.Fatalf("clause counts differ: %d/%d vs %d/%d",
			len(g.Clauses), len(g.XORs), len(f.Clauses), len(f.XORs))
	}
	if len(g.SamplingSet) != 3 {
		t.Fatalf("sampling set = %v", g.SamplingSet)
	}
	for i, x := range g.XORs {
		if x.RHS != f.XORs[i].RHS {
			t.Fatalf("xor %d RHS mismatch", i)
		}
	}
}

func TestParseDIMACSIndLines(t *testing.T) {
	src := `c a comment
c ind 1 2 0
c ind 7 0
p cnf 7 2
1 -2 0
3 4 5 0
x1 2 -7 0
`
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(f.SamplingSet) != 3 {
		t.Fatalf("sampling set %v, want 3 vars", f.SamplingSet)
	}
	if len(f.XORs) != 1 {
		t.Fatalf("xors = %d, want 1", len(f.XORs))
	}
	if f.XORs[0].RHS {
		t.Fatal("leading negation must flip RHS to false... got true")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p cnf x 2\n",
		"p dnf 2 2\n",
		"1 2\n",                     // missing 0
		"x1 2\n",                    // xor missing 0
		"1 a 0\n",                   // bad literal
		"c ind 1 -2 0\np cnf 2 0\n", // negative ind var
	}
	for _, src := range bad {
		if _, err := ParseDIMACSString(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseDeclaredVarsDominate(t *testing.T) {
	f, err := ParseDIMACSString("p cnf 10 1\n1 2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 10 {
		t.Fatalf("NumVars = %d, want 10", f.NumVars)
	}
}

func TestProjectKeys(t *testing.T) {
	a := NewAssignment(10)
	a.Set(3, true)
	a.Set(9, true)
	vars := []Var{3, 5, 9}
	key := a.Project(vars)
	if len(key) != 1 {
		t.Fatalf("key length %d, want 1", len(key))
	}
	if key[0] != 0b101 {
		t.Fatalf("key = %08b, want 101", key[0])
	}
	bits := a.ProjectBits(vars)
	if !bits[0] || bits[1] || !bits[2] {
		t.Fatalf("bits = %v", bits)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(3)
	f.AddClause(1, 2)
	f.AddXOR([]Var{1, 3}, true)
	f.SamplingSet = []Var{1}
	g := f.Clone()
	g.AddClause(-3)
	g.XORs[0].RHS = false
	g.SamplingSet[0] = 2
	if len(f.Clauses) != 1 || !f.XORs[0].RHS || f.SamplingSet[0] != 1 {
		t.Fatal("Clone is not deep")
	}
}

func TestSamplingVarsDefault(t *testing.T) {
	f := New(4)
	vs := f.SamplingVars()
	if len(vs) != 4 || vs[0] != 1 || vs[3] != 4 {
		t.Fatalf("SamplingVars = %v", vs)
	}
	f.SamplingSet = []Var{4, 2}
	vs = f.SamplingVars()
	if len(vs) != 2 || vs[0] != 2 || vs[1] != 4 {
		t.Fatalf("SamplingVars = %v, want sorted [2 4]", vs)
	}
}

func TestWriteDIMACSIndChunking(t *testing.T) {
	f := New(25)
	for v := 1; v <= 25; v++ {
		f.SamplingSet = append(f.SamplingSet, Var(v))
	}
	s := DIMACSString(f)
	lines := strings.Split(strings.TrimSpace(s), "\n")
	indLines := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "c ind") {
			indLines++
			if !strings.HasSuffix(l, " 0") {
				t.Fatalf("ind line missing terminator: %q", l)
			}
		}
	}
	if indLines != 3 {
		t.Fatalf("ind lines = %d, want 3", indLines)
	}
}

func TestExpandXOR(t *testing.T) {
	x := XORClause{Vars: []Var{1, 2, 3}, RHS: true}
	cls := ExpandXOR(x)
	if len(cls) != 4 {
		t.Fatalf("expanded to %d clauses, want 4", len(cls))
	}
	// Check against brute force: assignments satisfying all clauses are
	// exactly those with odd parity.
	for mask := 0; mask < 8; mask++ {
		a := NewAssignment(3)
		for v := 1; v <= 3; v++ {
			a[Var(v)] = mask&(1<<(v-1)) != 0
		}
		par := a[1] != a[2] != a[3]
		satAll := true
		for _, c := range cls {
			cs := false
			for _, l := range c {
				if a[l.Var()] != l.Neg() {
					cs = true
					break
				}
			}
			if !cs {
				satAll = false
				break
			}
		}
		if satAll != par {
			t.Fatalf("mask %03b: clauses=%v parity=%v", mask, satAll, par)
		}
	}
}

// TestParseDIMACSBoundsNumbers: a variable count, clause or XOR literal
// or sampling variable above MaxVars is a parse error, not a panic or a
// formula over a huge or negative variable; MaxVars itself parses.
func TestParseDIMACSBoundsNumbers(t *testing.T) {
	over := strconv.Itoa(MaxVars + 1)
	for _, text := range []string{
		"-9223372036854775808 0\n",
		"4611686018427387904 0\n",
		over + " 0\n",
		"-" + over + " 0\n",
		"x1 " + over + " 0\n",
		"x-" + over + " 0\n",
		"p cnf 100000000000 0\n",
		"p cnf " + over + " 0\n",
		"c ind 9223372036854775807 0\n",
		"c ind " + over + " 0\n",
	} {
		if f, err := ParseDIMACSString(text); err == nil {
			t.Errorf("%q parsed, to %d variables", text, f.NumVars)
		}
	}
	max := strconv.Itoa(MaxVars)
	for _, text := range []string{
		"p cnf " + max + " 0\n",
		"-" + max + " 0\n",
		"x-" + max + " 0\n",
		"c ind " + max + " 0\n",
	} {
		if f, err := ParseDIMACSString(text); err != nil || f.NumVars != MaxVars {
			t.Errorf("%q: %v, want a formula over %d variables", text, err, MaxVars)
		}
	}
}
