package counter

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

func randomCNF(rng *randx.RNG, n, m, k int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < m; i++ {
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
		}
		f.AddClauseLits(c)
	}
	return f
}

func TestSharpSATSimple(t *testing.T) {
	f := cnf.New(3)
	f.AddClause(1, 2)
	// Models of (x1∨x2) over 3 vars: 3 * 2 = 6.
	got, err := ExactSharpSAT(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("count = %v, want 6", got)
	}
}

func TestSharpSATEmptyFormula(t *testing.T) {
	f := cnf.New(10)
	got, err := ExactSharpSAT(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1024)) != 0 {
		t.Fatalf("count = %v, want 1024", got)
	}
}

func TestSharpSATUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1)
	got, err := ExactSharpSAT(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Fatalf("count = %v, want 0", got)
	}
}

func TestSharpSATMatchesBruteForce(t *testing.T) {
	rng := randx.New(21)
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(9)
		f := randomCNF(rng, n, rng.Intn(3*n), 3)
		want := int64(sat.BruteForceCount(f))
		got, err := ExactSharpSAT(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("iter %d: sharpSAT=%v brute=%d\n%s", iter, got, want, cnf.DIMACSString(f))
		}
	}
}

func TestSharpSATWithXORsMatchesBruteForce(t *testing.T) {
	rng := randx.New(22)
	for iter := 0; iter < 100; iter++ {
		n := 2 + rng.Intn(8)
		f := randomCNF(rng, n, rng.Intn(2*n), 3)
		for i := 0; i < 1+rng.Intn(3); i++ {
			var vs []cnf.Var
			for v := 1; v <= n; v++ {
				if rng.Bool() {
					vs = append(vs, cnf.Var(v))
				}
			}
			if len(vs) > 0 {
				f.AddXOR(vs, rng.Bool())
			}
		}
		want := int64(sat.BruteForceCount(f))
		got, err := ExactSharpSAT(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("iter %d: sharpSAT=%v brute=%d\n%s", iter, got, want, cnf.DIMACSString(f))
		}
	}
}

func TestSharpSATXORTooWide(t *testing.T) {
	f := cnf.New(20)
	var vs []cnf.Var
	for v := 1; v <= 20; v++ {
		vs = append(vs, cnf.Var(v))
	}
	f.AddXOR(vs, true)
	if _, err := ExactSharpSAT(f); err == nil {
		t.Fatal("expected error for wide XOR")
	}
}

func TestExactProjectedMatchesBruteForce(t *testing.T) {
	rng := randx.New(23)
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(6)
		f := randomCNF(rng, n, rng.Intn(2*n), 3)
		var proj []cnf.Var
		for v := 1; v <= n; v++ {
			if rng.Bool() {
				proj = append(proj, cnf.Var(v))
			}
		}
		if len(proj) == 0 {
			proj = []cnf.Var{1}
		}
		f.SamplingSet = proj
		want := int64(sat.BruteForceProjectedCount(f, proj))
		got, err := ExactProjected(f, 1<<12, sat.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("iter %d: projected=%v brute=%d", iter, got, want)
		}
	}
}

func TestExactProjectedLimit(t *testing.T) {
	f := cnf.New(6) // 64 models
	if _, err := ExactProjected(f, 10, sat.Config{}); err == nil {
		t.Fatal("expected limit error")
	}
}

func TestPivotAndIterFormulas(t *testing.T) {
	// Spot-check the ApproxMC2 constants at UniGen's operating point
	// ε=0.8, δ=0.2.
	if th := threshAMC(0.8); th != 73 {
		t.Errorf("thresh(0.8) = %d, want 73", th)
	}
	if it := iterAMC(0.2); it != 67 {
		t.Errorf("iter(0.2) = %d, want 67", it)
	}
	// Monotonicity: a looser tolerance never needs a bigger cell.
	check := func(e1 float64) bool {
		e := 0.1 + math.Mod(math.Abs(e1), 3)
		return threshAMC(e) >= threshAMC(e+0.5)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApproxMCExactSmall(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(1, 2)
	rng := randx.New(24)
	res, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0.8, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("small formula should be counted exactly")
	}
	want := int64(sat.BruteForceCount(f))
	if res.Count.Cmp(big.NewInt(want)) != 0 {
		t.Fatalf("count = %v, want %d", res.Count, want)
	}
}

func TestApproxMCWithinTolerance(t *testing.T) {
	// A formula with 2^10 = 1024 projected models: free cube over 10
	// vars plus constrained extras. ApproxMC(0.8, 0.2) must land within
	// a factor 1.8 (checked with generous slack for test stability).
	f := cnf.New(12)
	f.AddClause(11, 12) // vars 11,12 constrained; 1..10 free
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	rng := randx.New(25)
	res, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, MaxHashRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	got := new(big.Float).SetInt(res.Count)
	lo := big.NewFloat(1024.0 / 1.8)
	hi := big.NewFloat(1024.0 * 1.8)
	if got.Cmp(lo) < 0 || got.Cmp(hi) > 0 {
		t.Fatalf("ApproxMC = %v, want within [%v, %v]", res.Count, lo, hi)
	}
}

func TestApproxMCErrorCases(t *testing.T) {
	f := cnf.New(2)
	rng := randx.New(26)
	if _, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0, Delta: 0.2}); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0.8, Delta: 1.5}); err == nil {
		t.Error("delta=1.5 accepted")
	}
}

func TestApproxMCUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1)
	rng := randx.New(27)
	res, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0.8, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.Sign() != 0 || !res.Exact {
		t.Fatalf("unsat: count=%v exact=%v", res.Count, res.Exact)
	}
}
