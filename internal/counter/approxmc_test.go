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

// linearScan is the reference for cells.search: count cell i = 1, 2,
// … in turn, each from nothing, and stop at the first cell holding
// fewer than thresh witnesses. It returns i = 0 when no cell
// qualifies, and the BSAT calls made.
func linearScan(t *testing.T, sess *bsat.Session, h *hashfam.Hash, thresh int) (i, n, calls int) {
	t.Helper()
	for i := 1; i <= len(h.Rows); i++ {
		n, res := sess.Count(thresh, &hashfam.Hash{Vars: h.Vars, Rows: h.Rows[:i]}, nil)
		if res.BudgetExceeded {
			t.Fatalf("budget exhausted at %d hash bits", i)
		}
		if n < thresh {
			return i, n, i
		}
	}
	return 0, 0, len(h.Rows)
}

// baseMembers makes ApproxMC's base call on sess and returns the
// members it found, packed over vars.
func baseMembers(sess *bsat.Session, vars []cnf.Var, thresh int) []uint64 {
	m := bsat.Members{Vars: vars}
	sess.Count(thresh, nil, &m)
	return m.List
}

// linearApproxMC is ApproxMC's run at its defaults with the linear
// scan in place of the galloping search. It returns the median
// estimate and the BSAT calls made, the base call included.
func linearApproxMC(t *testing.T, sess *bsat.Session, rng *randx.RNG, rounds int) (*big.Int, int) {
	t.Helper()
	vars := sess.SamplingSet()
	thresh := threshAMC(0.8)
	if n, _ := sess.Count(thresh, nil, nil); n < thresh {
		t.Fatalf("base call counted %d, want at least %d", n, thresh)
	}
	calls := 1
	var ests []*big.Int
	for r := 0; r < rounds; r++ {
		i, n, c := linearScan(t, sess, hashfam.Draw(rng, vars, len(vars)-1), thresh)
		calls += c
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
// [1, |H|−1], both as a fresh run's round, which knows the base call's
// members of cell 0, and as a resumed run's, which knows none. Some
// hashes get an empty row — 0 = 1 empties every cell from that row on,
// 0 = 0 repeats the previous cell — so the search also meets empty
// boundary cells and cells that never get small. The scan counts every
// cell from nothing, so the members a search carries between its
// probes must change no outcome.
func TestSearchMatchesLinearScan(t *testing.T) {
	rng := randx.New(31)
	thresh := threshAMC(0.8)
	found, empty, none := 0, 0, 0
	var c cells
	calls := [2]int{} // BSAT calls with and without the base call's members
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
		wantI, wantN, _ := linearScan(t, sess, h, thresh)
		switch {
		case wantI == 0:
			none++
		case wantN == 0:
			empty++
		default:
			found++
		}
		base := baseMembers(sess, f.SamplingSet, thresh)
		for start := 1; start < nh; start++ {
			for k, known := range [][]uint64{base, nil} {
				c.reset(sess, h, thresh, known)
				i, n, err := c.search(start)
				if err != nil {
					t.Fatal(err)
				}
				if i != wantI || n != wantN {
					t.Fatalf("iter %d (|H|=%d) start %d, %d base members: search (%d, %d), linear scan (%d, %d)\n%s",
						iter, nh, start, len(known), i, n, wantI, wantN, cnf.DIMACSString(f))
				}
				if c.rows < c.calls {
					t.Fatalf("iter %d start %d: %d rows over %d probes", iter, start, c.rows, c.calls)
				}
				calls[k] += c.calls
			}
		}
	}
	if found == 0 {
		t.Fatalf("no formula had a non-empty boundary cell (%d empty, %d none)", empty, none)
	}
	t.Logf("boundaries: %d found, %d empty cells, %d never small; BSAT calls %d with the base call's members, %d without",
		found, empty, none, calls[0], calls[1])
}

// TestDeltaShapedRunMatchesCold: ApproxMC on a session that blocks over
// one set H₁ and carries standing assumptions A, with the run hashing
// over another set H₂, returns the estimate and rounds of a cold run
// over F ∧ A hashed and blocked over H₂, over several seeds. This is
// the shape of a delta setup (a pooled session keeps the base's hash
// set): within F both sets determine the declared set, so carried
// members must be recorded and blocked over the run's set, never the
// session's.
func TestDeltaShapedRunMatchesCold(t *testing.T) {
	// S = 1..12 with x12 = x10 ⊕ x11, so H₁ = 1..11 and H₂ = 1..10, 12
	// each determine S; 13 and 14 lie outside S.
	f := cnf.New(14)
	f.AddXOR([]cnf.Var{10, 11, 12}, false)
	f.AddClause(3, 4, 13)
	f.AddClause(-5, 6, -14)
	f.AddClause(7, -8, 9)
	f.AddClause(13, 14)
	h1 := []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	h2 := []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}
	assumps := []cnf.Lit{cnf.FromDIMACS(1), cnf.FromDIMACS(-2)}
	conj := f.Clone()
	for _, l := range assumps {
		conj.AddClause(l.DIMACS())
	}
	opts := ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, SamplingSet: h2}
	for seed := uint64(1); seed <= 5; seed++ {
		cold, err := ApproxMC(conj, randx.New(seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Exact {
			t.Fatalf("seed %d: the conjoined formula counts exactly (%v); the test needs it to hash", seed, cold.Count)
		}
		sess := bsat.NewSession(f, bsat.Options{SamplingSet: h1})
		sess.SetAssumptions(assumps)
		run, err := StartApproxMC(sess, randx.New(seed), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := run.Finish(sess)
		if err != nil {
			t.Fatal(err)
		}
		if delta.Count.Cmp(cold.Count) != 0 || delta.Rounds != cold.Rounds {
			t.Fatalf("seed %d: delta-shaped run %v over %d rounds, cold run %v over %d",
				seed, delta.Count, delta.Rounds, cold.Count, cold.Rounds)
		}
	}
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
			var c cells
			c.reset(sess, h, thresh, nil)
			i, n, err := c.search(start)
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

// drawRounds advances a generator seeded with seed past t rounds'
// hashes over nv variables: the RNG a run of t rounds leaves behind,
// whatever its searches did.
func drawRounds(seed uint64, nv, t int) uint64 {
	rng := randx.New(seed)
	for range t {
		hashfam.Draw(rng, make([]cnf.Var, nv), nv-1)
	}
	return rng.State()
}

// TestApproxMCRunsEveryRound: ApproxMC keeps ApproxMC2's full t = 67
// rounds (or the MaxHashRounds cap): each round draws one hash, so the
// caller's generator ends exactly t draws on, and the estimate is the
// median of t rounds run by hand.
func TestApproxMCRunsEveryRound(t *testing.T) {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ cap, rounds int }{{0, 67}, {20, 20}} {
		rng := randx.New(7)
		res, err := ApproxMC(f, rng, ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, MaxHashRounds: tc.cap})
		if err != nil {
			t.Fatal(err)
		}
		if want := drawRounds(7, 10, tc.rounds); rng.State() != want {
			t.Fatalf("cap %d: generator is not %d hash draws on", tc.cap, tc.rounds)
		}
		sess := bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingSet})
		run, err := StartApproxMC(sess, randx.New(7), ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, MaxHashRounds: tc.cap}, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		err = run.Rounds([]*bsat.Session{sess}, func() bool {
			k++
			if run.Left() != tc.rounds-k {
				t.Fatalf("cap %d: %d rounds left after %d, want %d", tc.cap, run.Left(), k, tc.rounds-k)
			}
			return false
		})
		if err != nil || k != tc.rounds {
			t.Fatalf("cap %d: %d rounds by hand (%v), want %d", tc.cap, k, err, tc.rounds)
		}
		ests := run.State().Estimates
		if res.Rounds != len(ests) || res.Count.Cmp(ests[len(ests)/2]) != 0 {
			t.Fatalf("cap %d: ApproxMC %v over %d rounds, by hand %v over %d", tc.cap, res.Count, res.Rounds, ests[len(ests)/2], len(ests))
		}
	}
}

// TestApproxMCResumeMatchesFullRun: a run stopped after any round and
// resumed from its state on a fresh session — another solver history —
// finishes to the uninterrupted run's estimate, and MedianRange always
// brackets it.
func TestApproxMCResumeMatchesFullRun(t *testing.T) {
	rng := randx.New(67)
	opts := ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, MaxHashRounds: 20}
	for iter := 0; iter < 3; iter++ {
		f := randomCNFXOR(rng, 8+rng.Intn(5))
		opts.SamplingSet = f.SamplingSet
		seed := rng.Uint64()
		full, err := ApproxMC(f, randx.New(seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		sess := bsat.NewSession(f, bsat.Options{})
		run, err := StartApproxMC(sess, randx.New(seed), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		check := func() bool {
			if lo, hi, ok := run.MedianRange(); ok && (lo.Cmp(full.Count) > 0 || hi.Cmp(full.Count) < 0) {
				t.Fatalf("iter %d round %d: median range [%v, %v] misses the full run's %v", iter, k, lo, hi, full.Count)
			}
			res, err := ResumeApproxMC(run.State(), opts).Finish(bsat.NewSession(f, bsat.Options{}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Count.Cmp(full.Count) != 0 || res.Rounds != full.Rounds {
				t.Fatalf("iter %d: resumed after %d rounds to %v over %d rounds, full run %v over %d",
					iter, k, res.Count, res.Rounds, full.Count, full.Rounds)
			}
			k++
			return false
		}
		check()
		if err := run.Rounds([]*bsat.Session{sess}, check); err != nil {
			t.Fatal(err)
		}
	}
}
