package unigen

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"unigen/internal/baseline"
	"unigen/internal/bdd"
	"unigen/internal/counter"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// TestCountersAgree cross-validates the three counting engines (DPLL
// #SAT, BDD, enumeration) on random formulas — three independent
// implementations that must agree exactly.
func TestCountersAgree(t *testing.T) {
	rng := randx.New(201)
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(7)
		f := NewFormula(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			c := make([]int, 0, 3)
			for j := 0; j < 3; j++ {
				v := rng.Intn(n) + 1
				if rng.Bool() {
					v = -v
				}
				c = append(c, v)
			}
			f.AddClause(c...)
		}
		sharp, err := counter.ExactSharpSAT(f)
		if err != nil {
			t.Fatal(err)
		}
		bb := bdd.NewBuilder(n, 0)
		root, err := bb.CompileCNF(f)
		if err != nil {
			t.Fatal(err)
		}
		bddCount := bb.Count(root)
		enum, err := counter.ExactProjected(f, 1<<uint(n+1), sat.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if sharp.Cmp(bddCount) != 0 || sharp.Cmp(enum) != 0 {
			t.Fatalf("iter %d: sharp=%v bdd=%v enum=%v", iter, sharp, bddCount, enum)
		}
	}
}

// TestSamplersAgree compares the empirical distributions of UniGen, the
// exactly-uniform BDD sampler, and US on one witness space: pairwise
// total-variation distances must be within sampling noise of each
// other.
func TestSamplersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	f := NewFormula(8)
	f.AddClause(1, 2, 3)
	f.AddXOR([]Var{4, 5}, true)
	const n = 4000
	vars := f.SamplingVars()

	// UniGen.
	s, err := NewSampler(f, Options{Epsilon: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	ugCounts := map[string]int{}
	ws, err := s.SampleN(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		ugCounts[keyOf(w, vars)]++
	}

	// BDD sampler.
	bb := bdd.NewBuilder(f.NumVars, 0)
	root, err := bb.CompileCNF(f)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := bb.NewSampler(root)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(78)
	bddCounts := map[string]int{}
	for i := 0; i < n; i++ {
		a := bs.Sample(rng)
		bddCounts[a.Project(vars)]++
	}

	// US.
	us, err := baseline.NewUS(f, 1<<10, sat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng2 := randx.New(79)
	usCounts := map[string]int{}
	for i := 0; i < n; i++ {
		usCounts[us.Sample(rng2).Project(vars)]++
	}

	// All three saw the same support size.
	if len(bddCounts) != us.Count() {
		t.Fatalf("BDD saw %d witnesses, US counted %d", len(bddCounts), us.Count())
	}
	tvd := func(a, b map[string]int) float64 {
		keys := map[string]struct{}{}
		for k := range a {
			keys[k] = struct{}{}
		}
		for k := range b {
			keys[k] = struct{}{}
		}
		d := 0.0
		for k := range keys {
			d += math.Abs(float64(a[k])-float64(b[k])) / n
		}
		return d / 2
	}
	// Pure-noise TVD at n=4000 over ~100+ cells is ~0.06; UniGen's ε=6
	// slack admits a bit more.
	if d := tvd(bddCounts, usCounts); d > 0.12 {
		t.Fatalf("BDD vs US TVD = %.3f (two exactly-uniform samplers!)", d)
	}
	if d := tvd(ugCounts, usCounts); d > 0.2 {
		t.Fatalf("UniGen vs US TVD = %.3f", d)
	}
}

func keyOf(w Witness, vars []Var) string {
	buf := make([]byte, (len(vars)+7)/8)
	for i, b := range w.Bits(vars) {
		if b {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	return string(buf)
}

// TestParserNeverPanics fuzzes the DIMACS parser with random junk.
func TestParserNeverPanics(t *testing.T) {
	check := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseDIMACSString(src)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Structured junk that resembles DIMACS.
	for _, src := range []string{
		"p cnf 1 1\n0\n",
		"p cnf 0 0\n",
		"x 0\n",
		"c ind\np cnf 1 0\n",
		"p cnf 3 1\n1 2 3 0 4 5 0\n",
		"p cnf -3 1\n",
	} {
		if !check(src) {
			t.Fatalf("panic on %q", src)
		}
	}
}

// TestApproxVsExactProperty: ApproxMC at the paper's (ε, δ) lands
// within tolerance on random small formulas with high probability; we
// allow 1 miss in the batch.
func TestApproxVsExactProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	rng := randx.New(202)
	misses := 0
	for iter := 0; iter < 12; iter++ {
		n := 8 + rng.Intn(4)
		f := NewFormula(n)
		for i := 0; i < 2; i++ {
			c := make([]int, 0, 3)
			for j := 0; j < 3; j++ {
				v := rng.Intn(n) + 1
				if rng.Bool() {
					v = -v
				}
				c = append(c, v)
			}
			f.AddClause(c...)
		}
		exact, err := counter.ExactSharpSAT(f)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Sign() == 0 {
			continue
		}
		approx, err := ApproxCount(f, 0.8, 0.2, Options{Seed: uint64(300 + iter)})
		if err != nil {
			t.Fatal(err)
		}
		lo := new(big.Float).Quo(new(big.Float).SetInt(exact), big.NewFloat(1.8))
		hi := new(big.Float).Mul(new(big.Float).SetInt(exact), big.NewFloat(1.8))
		v := new(big.Float).SetInt(approx)
		if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
			misses++
		}
	}
	if misses > 1 {
		t.Fatalf("%d of 12 ApproxMC runs outside tolerance (δ=0.2 allows ~2)", misses)
	}
}
