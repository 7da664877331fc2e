package indsupport

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/circuit"
	"unigen/internal/cnf"
	"unigen/internal/sat"
)

func TestPaperExample(t *testing.T) {
	// (a ∨ ¬b) ∧ (¬a ∨ b) from §2: independent supports are {a}, {b},
	// {a,b}.
	f := cnf.New(2)
	f.AddClause(1, -2)
	f.AddClause(-1, 2)
	for _, s := range [][]cnf.Var{{1}, {2}, {1, 2}} {
		ok, err := IsIndependent(f, s, sat.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v should be an independent support", s)
		}
	}
	// The empty set is not (two distinct witnesses exist).
	ok, err := IsIndependent(f, nil, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty set accepted")
	}
}

func TestMinimizeShrinksPaperExample(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, -2)
	f.AddClause(-1, 2)
	s, err := Minimize(f, []cnf.Var{1, 2}, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 1 {
		t.Fatalf("minimized support = %v, want singleton", s)
	}
}

func TestTseitinInputsAreIndependent(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.InputWord(4)
	y := b.InputWord(4)
	sum := b.AddWord(x, y)
	b.Output(sum[3])
	enc, err := circuit.Encode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsIndependent(enc.Formula, enc.InputVars, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("circuit inputs rejected as independent support")
	}
	// A strict subset of the inputs is NOT an independent support for a
	// free-input circuit (dropping an input loses information).
	ok, err = IsIndependent(enc.Formula, enc.InputVars[1:], sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("subset of inputs accepted")
	}
}

func TestAuxVarsAloneNotIndependent(t *testing.T) {
	// An AND gate's output does not determine its inputs.
	b := circuit.NewBuilder()
	p := b.Input()
	q := b.Input()
	z := b.And(p, q)
	b.Output(z)
	enc, err := circuit.Encode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	zVar := enc.SigVar[z]
	ok, err := IsIndependent(enc.Formula, []cnf.Var{zVar}, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("AND output accepted as independent support")
	}
}

func TestFindOnSmallBenchmark(t *testing.T) {
	inst, err := benchgen.Generate("case110", benchgen.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The declared sampling set must verify as independent.
	ok, err := IsIndependent(inst.F, inst.F.SamplingSet, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("benchmark sampling set not independent")
	}
	// Minimizing it cannot grow it.
	s, err := Minimize(inst.F, inst.F.SamplingSet, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) > len(inst.F.SamplingSet) {
		t.Fatalf("minimize grew the set: %d > %d", len(s), len(inst.F.SamplingSet))
	}
	// For a free-input circuit the inputs are already minimal.
	if len(s) != len(inst.F.SamplingSet) {
		t.Fatalf("free inputs should be minimal; got %d of %d", len(s), len(inst.F.SamplingSet))
	}
}

func TestMinimizeRejectsNonSupport(t *testing.T) {
	f := cnf.New(3) // free cube: only the full set is independent
	if _, err := Minimize(f, []cnf.Var{1}, sat.Config{}); err == nil {
		t.Fatal("non-support starting set accepted")
	}
}

func TestXORFormulaSupport(t *testing.T) {
	// x3 = x1⊕x2: {x1,x2} is an independent support; {x1,x3} too.
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2, 3}, false)
	for _, s := range [][]cnf.Var{{1, 2}, {1, 3}, {2, 3}} {
		ok, err := IsIndependent(f, s, sat.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%v should be independent for the XOR formula", s)
		}
	}
	ok, err := IsIndependent(f, []cnf.Var{1}, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("{1} accepted for 3-var XOR")
	}
	s, err := Find(f, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("Find returned %v, want a 2-element support", s)
	}
}

// definedFormula: x3 = x1 ⊕ x2 and x4 = x1 ∧ x2, with x5 fixed by a
// unit clause.
func definedFormula() *cnf.Formula {
	f := cnf.New(5)
	f.AddXOR([]cnf.Var{1, 2, 3}, false)
	f.AddClause(-4, 1)
	f.AddClause(-4, 2)
	f.AddClause(4, -1, -2)
	f.AddClause(5)
	return f
}

func TestHashSetDropsDefinedKeepsFixed(t *testing.T) {
	f := definedFormula()
	// Visiting in order: x1 = x2 ⊕ x3 goes, x2 is then needed, x3 stays
	// (x4 = x1 ∧ x2 does not pin x1 ⊕ x2), x4 = x2 ∧ (x2 ⊕ x3) goes,
	// and the constant x5 stays without a check.
	h, err := HashSet(f, []cnf.Var{1, 2, 3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []cnf.Var{2, 3, 5}; !slices.Equal(h, want) {
		t.Fatalf("hash set %v, want %v", h, want)
	}
	// Order decides which of the definable variables survive.
	h, err = HashSet(f, []cnf.Var{4, 3, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []cnf.Var{2, 1}; !slices.Equal(h, want) {
		t.Fatalf("reversed hash set %v, want %v", h, want)
	}
	// Minimize, by contrast, drops the constant: it is defined by nothing.
	m, err := Minimize(f, []cnf.Var{1, 2, 3, 4, 5}, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []cnf.Var{2, 3}; !slices.Equal(m, want) {
		t.Fatalf("minimized %v, want %v", m, want)
	}
}

// TestPruneExhaustedCheck: under hashing rules a check that runs out of
// budget keeps its variable; Minimize reports the budget error instead.
func TestPruneExhaustedCheck(t *testing.T) {
	f := definedFormula()
	start := []cnf.Var{1, 2, 3, 4, 5}
	h, err := prune(f, start, sat.Config{MaxPropagations: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(h, start) {
		t.Fatalf("exhausted checks dropped variables: %v", h)
	}
	if _, err := prune(f, start, sat.Config{MaxPropagations: 1}, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("strict pass: %v, want ErrBudget", err)
	}
}

// TestHashSetInterrupted: an interrupt fails the pass rather than
// returning a half-pruned set.
func TestHashSetInterrupted(t *testing.T) {
	var intr atomic.Bool
	intr.Store(true)
	if _, err := HashSet(definedFormula(), []cnf.Var{1, 2, 3, 4}, &intr); !errors.Is(err, ErrBudget) {
		t.Fatalf("interrupted pass: %v, want ErrBudget", err)
	}
}

// TestFindFullSupportIsMinimal runs the pass from all 175 variables of
// a benchmark circuit: the result must be an independent support from
// which no single variable can be dropped.
func TestFindFullSupportIsMinimal(t *testing.T) {
	inst, err := benchgen.Generate("s953a_3_2", benchgen.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Find(inst.F, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) >= inst.F.NumVars {
		t.Fatalf("Find kept %d of %d variables", len(s), inst.F.NumVars)
	}
	if ok, err := IsIndependent(inst.F, s, sat.Config{}); err != nil || !ok {
		t.Fatalf("Find result %v not independent (%v)", s, err)
	}
	for i := range s {
		ok, err := IsIndependent(inst.F, slices.Delete(slices.Clone(s), i, i+1), sat.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("dropping %d still leaves an independent support: %v is not minimal", s[i], s)
		}
	}
}
