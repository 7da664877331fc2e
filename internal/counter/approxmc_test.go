package counter

import (
	"math/big"
	"sort"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// linearScan is the reference for cells.search: probe i = 1, 2, … in
// turn and stop at the first cell holding fewer than thresh witnesses.
// It returns i = 0 when no cell qualifies.
func linearScan(t *testing.T, c *cells) (int, int) {
	t.Helper()
	for i := 1; i <= len(c.h.Rows); i++ {
		n, err := c.count(i)
		if err != nil {
			t.Fatal(err)
		}
		if n < c.thresh {
			return i, n
		}
	}
	return 0, 0
}

// linearApproxMC is ApproxMCSession at its defaults with the linear
// scan in place of the galloping search. It returns the median
// estimate and the BSAT calls made, the base call included.
func linearApproxMC(t *testing.T, sess *bsat.Session, rng *randx.RNG, rounds int) (*big.Int, int) {
	t.Helper()
	vars := sess.SamplingSet()
	thresh := threshAMC(0.8)
	if n, _ := sess.Count(thresh, nil); n < thresh {
		t.Fatalf("base call counted %d, want at least %d", n, thresh)
	}
	calls := 1
	var ests []*big.Int
	for r := 0; r < rounds; r++ {
		c := &cells{sess: sess, h: hashfam.Draw(rng, vars, len(vars)-1), thresh: thresh}
		i, n := linearScan(t, c)
		calls += c.calls
		if i > 0 && n > 0 {
			ests = append(ests, new(big.Int).Lsh(big.NewInt(int64(n)), uint(i)))
		}
	}
	if len(ests) == 0 {
		t.Fatal("every linear-scan round failed")
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].Cmp(ests[j]) < 0 })
	return ests[len(ests)/2], calls
}

// randomCNFXOR draws a formula over nh sampling variables plus up to
// three others, with a few short clauses and XORs so that it keeps
// many witnesses.
func randomCNFXOR(rng *randx.RNG, nh int) *cnf.Formula {
	n := nh + rng.Intn(4)
	f := randomCNF(rng, n, rng.Intn(n/2+1), 3)
	for k := rng.Intn(3); k > 0; k-- {
		var vs []cnf.Var
		for v := 1; v <= n; v++ {
			if rng.Intn(3) == 0 {
				vs = append(vs, cnf.Var(v))
			}
		}
		if len(vs) > 0 {
			f.AddXOR(vs, rng.Bool())
		}
	}
	for v := 1; v <= nh; v++ {
		f.SamplingSet = append(f.SamplingSet, cnf.Var(v))
	}
	return f
}

// TestSearchMatchesLinearScan: over random CNF+XOR formulas with
// |H| = 8–16, the galloping search returns exactly the (i, count) of a
// linear scan over the same nested hash from every start in
// [1, |H|−1]. Some hashes get an empty row — 0 = 1 empties every cell
// from that row on, 0 = 0 repeats the previous cell — so the search
// also meets empty boundary cells and cells that never get small.
func TestSearchMatchesLinearScan(t *testing.T) {
	rng := randx.New(31)
	thresh := threshAMC(0.8)
	found, empty, none := 0, 0, 0
	for iter := 0; iter < 40; iter++ {
		nh := 8 + rng.Intn(9)
		f := randomCNFXOR(rng, nh)
		sess := bsat.NewSession(f, bsat.Options{})
		h := hashfam.Draw(rng, f.SamplingSet, nh-1)
		if iter%3 == 0 {
			r := gf2.NewRow(nh)
			r.RHS = rng.Bool()
			h.Rows[rng.Intn(nh-1)] = r
		}
		wantI, wantN := linearScan(t, &cells{sess: sess, h: h, thresh: thresh})
		switch {
		case wantI == 0:
			none++
		case wantN == 0:
			empty++
		default:
			found++
		}
		for start := 1; start < nh; start++ {
			c := &cells{sess: sess, h: h, thresh: thresh}
			i, n, err := c.search(start)
			if err != nil {
				t.Fatal(err)
			}
			if i != wantI || n != wantN {
				t.Fatalf("iter %d (|H|=%d) start %d: search (%d, %d), linear scan (%d, %d)\n%s",
					iter, nh, start, i, n, wantI, wantN, cnf.DIMACSString(f))
			}
			if c.rows < c.calls {
				t.Fatalf("iter %d start %d: %d rows over %d probes", iter, start, c.rows, c.calls)
			}
		}
	}
	if found == 0 {
		t.Fatalf("no formula had a non-empty boundary cell (%d empty, %d none)", empty, none)
	}
	t.Logf("boundaries: %d found, %d empty cells, %d never small", found, empty, none)
}

// TestSearchDegenerateHashes: a hash of 0 = 0 rows never makes the
// cell small, so every start reports no boundary; 0 = 1 as the first
// row empties cell 1, the boundary from every start.
func TestSearchDegenerateHashes(t *testing.T) {
	f := cnf.New(10)
	sess := bsat.NewSession(f, bsat.Options{})
	thresh := threshAMC(0.8)
	for _, rhs := range []bool{false, true} {
		h := &hashfam.Hash{Vars: f.SamplingVars(), Rows: make([]gf2.Row, 9)}
		for j := range h.Rows {
			h.Rows[j] = gf2.NewRow(10)
			h.Rows[j].RHS = rhs
		}
		want := 0
		if rhs {
			want = 1
		}
		for start := 1; start <= 9; start++ {
			i, n, err := (&cells{sess: sess, h: h, thresh: thresh}).search(start)
			if err != nil {
				t.Fatal(err)
			}
			if i != want || n != 0 {
				t.Fatalf("rhs=%v start %d: (%d, %d), want (%d, 0)", rhs, start, i, n, want)
			}
		}
	}
}

// TestGallopSavesBSATCalls: with 2^14 witnesses over 14 variables the
// boundary lies at i = 8, where a linear scan makes 8 calls a round.
// ApproxMC must return the linear scan's estimate in fewer than half
// its BSAT calls.
func TestGallopSavesBSATCalls(t *testing.T) {
	f := cnf.New(16)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	const rounds = 10
	res, err := ApproxMC(f, randx.New(92), ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, MaxHashRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	sess := bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingSet})
	want, linearCalls := linearApproxMC(t, sess, randx.New(92), rounds)
	if res.Count.Cmp(want) != 0 {
		t.Fatalf("estimate %v, linear scan %v", res.Count, want)
	}
	if 2*res.BSATCalls >= linearCalls {
		t.Fatalf("%d BSAT calls, linear scan %d: want fewer than half", res.BSATCalls, linearCalls)
	}
	t.Logf("BSAT calls: %d galloping, %d linear; XOR rows %d", res.BSATCalls, linearCalls, res.TotalXORRows)
}

// TestApproxMCEpsilonDelta checks the (ε, δ) guarantee at UniGen's
// ε = 0.8, δ = 0.2 against exact projected counts: over 100 seeds per
// fixture, the share of estimates within [C/1.8, 1.8·C] must clear
// 70, the binomial lower bound for p = 0.8 (P[X < 70] ≈ 0.6%).
func TestApproxMCEpsilonDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("100 full ApproxMC runs per fixture")
	}
	for _, fx := range epsilonDeltaFixtures(t) {
		want := sat.BruteForceProjectedCount(fx.f, fx.f.SamplingVars())
		if want < threshAMC(0.8) {
			t.Fatalf("%s: %d witnesses, below thresh: the fixture never hashes", fx.name, want)
		}
		lo, hi := float64(want)/1.8, float64(want)*1.8
		within := 0
		for seed := uint64(0); seed < 100; seed++ {
			res, err := ApproxMC(fx.f, randx.New(seed), ApproxMCOptions{Epsilon: 0.8, Delta: 0.2})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fx.name, seed, err)
			}
			if v, _ := new(big.Float).SetInt(res.Count).Float64(); v >= lo && v <= hi {
				within++
			}
		}
		t.Logf("%s: %d of 100 estimates within 1.8x of %d", fx.name, within, want)
		if within < 70 {
			t.Errorf("%s: %d of 100 estimates within 1.8x of %d, want at least 70", fx.name, within, want)
		}
	}
}

type fixture struct {
	name string
	f    *cnf.Formula
}

// epsilonDeltaFixtures are three small formulas that hash: a random
// 3-CNF over all its variables, one with XOR clauses, and one whose
// sampling set projects away a third of its variables.
func epsilonDeltaFixtures(t *testing.T) []fixture {
	t.Helper()
	rng := randx.New(41)
	cnf3 := randomCNF(rng, 10, 6, 3)

	xor := randomCNF(rng, 10, 4, 3)
	xor.AddXOR([]cnf.Var{1, 3, 5, 7}, true)
	xor.AddXOR([]cnf.Var{2, 4, 9}, false)

	proj := randomCNF(rng, 15, 12, 3)
	for v := 1; v <= 10; v++ {
		proj.SamplingSet = append(proj.SamplingSet, cnf.Var(v))
	}
	return []fixture{{"3-CNF", cnf3}, {"CNF+XOR", xor}, {"projected", proj}}
}
