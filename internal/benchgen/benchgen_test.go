package benchgen

import (
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/sat"
)

func TestAllSpecsBuildSmallAndAreSat(t *testing.T) {
	for _, sp := range Specs() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := sp.Build(ScaleSmall, 1)
			if err != nil {
				t.Fatal(err)
			}
			if inst.F == nil || inst.NumVars == 0 {
				t.Fatal("empty instance")
			}
			if inst.SupportSize == 0 || inst.SupportSize > inst.NumVars {
				t.Fatalf("support size %d vs %d vars", inst.SupportSize, inst.NumVars)
			}
			s := sat.New(inst.F, sat.Config{})
			if got := s.Solve(); got != sat.Sat {
				t.Fatalf("instance is %v, want SAT", got)
			}
			if m := s.Model(); !m.Satisfies(inst.F) {
				t.Fatal("model check failed")
			}
		})
	}
}

func TestSupportIsIndependent(t *testing.T) {
	// For a selection of small instances, verify the defining property:
	// no two witnesses agree on the sampling set but differ elsewhere —
	// equivalently, fixing the sampling set leaves exactly one witness.
	for _, name := range []string{"case110", "s526_3_2", "Squaring1", "Sort", "LLReverse"} {
		inst, err := Generate(name, ScaleSmall, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Take a few witnesses and check their full extensions are unique.
		res := bsat.Enumerate(inst.F, 5, bsat.Options{})
		if len(res.Witnesses) == 0 {
			t.Fatalf("%s: unsat?", name)
		}
		for _, w := range res.Witnesses {
			g := inst.F.Clone()
			for _, v := range inst.F.SamplingSet {
				if w.Get(v) {
					g.AddClause(int(v))
				} else {
					g.AddClause(-int(v))
				}
			}
			full := g.SamplingVars() // all vars
			g.SamplingSet = nil
			r2 := bsat.Enumerate(g, 3, bsat.Options{SamplingSet: full})
			if n := len(r2.Witnesses); !r2.Exhausted || n != 1 {
				t.Fatalf("%s: fixing sampling set left %d extensions (exhausted=%v)", name, n, r2.Exhausted)
			}
		}
	}
}

func TestCase110WitnessCount(t *testing.T) {
	// The Figure 1 instance must have exactly 2^14 = 16384 witnesses at
	// every scale (free inputs).
	inst, err := Generate("case110", ScaleSmall, 7)
	if err != nil {
		t.Fatal(err)
	}
	if inst.SupportSize != 14 {
		t.Fatalf("support = %d, want 14", inst.SupportSize)
	}
	res := bsat.Enumerate(inst.F, 20000, bsat.Options{})
	if n := len(res.Witnesses); !res.Exhausted || n != 16384 {
		t.Fatalf("witnesses = %d (exhausted=%v), want 16384", n, res.Exhausted)
	}
}

func TestScalesGrow(t *testing.T) {
	for _, name := range []string{"Squaring7", "s1196a_7_4", "EnqueueSeqSK"} {
		small, err := Generate(name, ScaleSmall, 3)
		if err != nil {
			t.Fatal(err)
		}
		medium, err := Generate(name, ScaleMedium, 3)
		if err != nil {
			t.Fatal(err)
		}
		if medium.NumVars <= small.NumVars {
			t.Fatalf("%s: medium (%d vars) not larger than small (%d vars)",
				name, medium.NumVars, small.NumVars)
		}
		if medium.SupportSize < small.SupportSize {
			t.Fatalf("%s: medium support %d < small %d", name, medium.SupportSize, small.SupportSize)
		}
	}
}

func TestSupportMuchSmallerThanVars(t *testing.T) {
	// The paper's Table 1 phenomenon: |S| ≪ |X|.
	for _, name := range []string{"EnqueueSeqSK", "LLReverse", "tutorial3", "Karatsuba"} {
		inst, err := Generate(name, ScaleMedium, 4)
		if err != nil {
			t.Fatal(err)
		}
		if inst.NumVars < 4*inst.SupportSize {
			t.Fatalf("%s: |X|=%d not ≫ |S|=%d", name, inst.NumVars, inst.SupportSize)
		}
	}
}

func TestTableRowsComplete(t *testing.T) {
	t1 := TableRows(1)
	if len(t1) != 12 {
		t.Fatalf("Table 1 rows = %d, want 12", len(t1))
	}
	t2 := TableRows(2)
	if len(t2) != 31 {
		t.Fatalf("Table 2 rows = %d, want 31", len(t2))
	}
	if TableRows(3) != nil {
		t.Fatal("Table 3 should be nil")
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Generate("nope", ScaleSmall, 1); err == nil {
		t.Fatal("unknown name accepted by Generate")
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"small", ScaleSmall, true},
		{"medium", ScaleMedium, true},
		{"full", ScaleFull, true},
		{"big", 0, false},
	} {
		got, err := ParseScale(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseScale(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Generate("s526_3_2", ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("s526_3_2", ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cnf.DIMACSString(a.F) != cnf.DIMACSString(b.F) {
		t.Fatal("same seed produced different instances")
	}
	c, err := Generate("s526_3_2", ScaleSmall, 43)
	if err != nil {
		t.Fatal(err)
	}
	if cnf.DIMACSString(a.F) == cnf.DIMACSString(c.F) {
		t.Fatal("different seeds produced identical instances")
	}
}
