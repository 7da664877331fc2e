package unigen

import (
	"errors"
	"math/big"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/indsupport"
)

func TestIndependentSupportPublicAPI(t *testing.T) {
	f := NewFormula(3)
	f.AddXOR([]Var{1, 2, 3}, false) // x3 = x1⊕x2
	ok, err := IsIndependentSupport(f, []Var{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("{1,2} rejected")
	}
	s, err := FindIndependentSupport(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("minimal support = %v", s)
	}
	m, err := MinimizeIndependentSupport(f, []Var{1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("minimized = %v", m)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	// The full downstream workflow: parse → sample → count.
	src := `c ind 1 2 3 4 0
p cnf 6 6
1 2 5 0
-5 6 0
x1 2 6 0
3 4 0
-3 4 0
4 0
`
	f, err := ParseDIMACSString(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(f, Options{Epsilon: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.SampleN(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
	}
	// x4 is forced, x3 is free, and each of the four (x1, x2) pairs
	// extends to a model.
	n, err := ExactProjectedCount(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("projected count = %v, want 8", n)
	}
}

// TestIndependentSupportHonoursBudgets: the support entry points run
// under every solver budget Options carries. MaxPropagations used to
// be dropped on the way down, so a one-propagation budget still
// answered.
func TestIndependentSupportHonoursBudgets(t *testing.T) {
	inst, err := benchgen.Generate("TreeMax", benchgen.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.F
	for _, opts := range []Options{{MaxConflicts: 1}, {MaxPropagations: 1}} {
		if _, err := IsIndependentSupport(f, f.SamplingSet, opts); !errors.Is(err, indsupport.ErrBudget) {
			t.Errorf("IsIndependentSupport %+v: %v, want the budget error", opts, err)
		}
		if _, err := MinimizeIndependentSupport(f, f.SamplingSet, opts); !errors.Is(err, indsupport.ErrBudget) {
			t.Errorf("MinimizeIndependentSupport %+v: %v, want the budget error", opts, err)
		}
		if _, err := FindIndependentSupport(f, opts); !errors.Is(err, indsupport.ErrBudget) {
			t.Errorf("FindIndependentSupport %+v: %v, want the budget error", opts, err)
		}
	}
	if ok, err := IsIndependentSupport(f, f.SamplingSet, Options{}); err != nil || !ok {
		t.Fatalf("unbudgeted check: %v, %v; want an independent support", ok, err)
	}
}
