package core

import (
	"math/big"
	"slices"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// bruteSettled decides whether q is settled from the rule's definition
// instead of MedianRange's closed form: every way the rounds left can
// end must give the median the same q. A round fails or adds an
// estimate in [2, 72·2^(|H|−1)] (thresh = 73 at ε′ = 0.8), and the
// median is monotone in each estimate, so it is enough to add j
// copies of the smallest or of the largest estimate for every
// j = 0…left. It returns the q of the current median.
func bruteSettled(su *Setup, ests []*big.Int, left int) (int, bool) {
	if len(ests) == 0 {
		return 0, false
	}
	median := func(extra *big.Int, j int) *big.Int {
		all := slices.Clone(ests)
		for range j {
			all = append(all, extra)
		}
		slices.SortFunc(all, (*big.Int).Cmp)
		return all[len(all)/2]
	}
	q := su.lineTen(median(nil, 0))
	smallest, largest := big.NewInt(2), new(big.Int).Lsh(big.NewInt(72), uint(len(su.h)-1))
	for j := 0; j <= left; j++ {
		if su.lineTen(median(smallest, j)) != q || su.lineTen(median(largest, j)) != q {
			return q, false
		}
	}
	return q, true
}

// settleFormula draws one formula of a family over nh sampling
// variables (plus up to three others for "random"):
//   - "random": a few short clauses and XORs, many witnesses;
//   - "affine": XORs over the sampling set alone, so its projections
//     form an affine space of dimension 7–9. A hash row constant on a
//     cell empties it half the time, so some rounds fail;
//   - "clamp": 12 variables under clauses of widths 2, 3 and 3 over
//     disjoint variables, 4096·¾·⅞·⅞ = 2352 witnesses. At ε = 1.9
//     (pivot 2181, hiThresh 2291) that is the hashing case with line 10
//     at its lower clamp, q = 1, for estimates up to 2423.
func settleFormula(rng *randx.RNG, family string, nh int) *cnf.Formula {
	n := nh
	if family == "random" {
		n += rng.Intn(4)
	}
	f := cnf.New(n)
	for v := 1; v <= nh; v++ {
		f.SamplingSet = append(f.SamplingSet, cnf.Var(v))
	}
	lit := func(v int) int {
		if rng.Bool() {
			return -v
		}
		return v
	}
	switch family {
	case "random":
		for k := rng.Intn(n/2 + 1); k > 0; k-- {
			f.AddClause(lit(1+rng.Intn(n)), lit(1+rng.Intn(n)), lit(1+rng.Intn(n)))
		}
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
	case "affine":
		for k := nh - 7 - rng.Intn(3); k > 0; k-- {
			var vs []cnf.Var
			for v := 1; v <= nh; v++ {
				if rng.Bool() {
					vs = append(vs, cnf.Var(v))
				}
			}
			if len(vs) > 0 {
				f.AddXOR(vs, rng.Bool())
			}
		}
	case "clamp":
		p := rng.Perm(nh)
		f.AddClause(lit(p[0]+1), lit(p[1]+1))
		f.AddClause(lit(p[2]+1), lit(p[3]+1), lit(p[4]+1))
		f.AddClause(lit(p[5]+1), lit(p[6]+1), lit(p[7]+1))
	}
	return f
}

// TestSettledStopMatchesFullRun: over random CNF+XOR formulas with
// |H| = 8–16, each prepared from its own seed, the setup's stop is
// exact. Its q equals line 10 for a full ApproxMCSession run on a fresh
// session with the same seed; it stops after the first round at which
// bruteSettled holds; and WitnessCount finishes to the full run's
// estimate. The draw includes formulas with failing rounds and
// formulas whose q sits at line 10's lower clamp. No estimate within
// 1.8× of a count reaches the upper clamp q = |H| (pivot ≥ 20), so
// that clamp enters through the largest estimate, the upper end of
// every early round's median range.
func TestSettledStopMatchesFullRun(t *testing.T) {
	rng := randx.New(2016)
	per := map[string]int{"random": 24, "affine": 16, "clamp": 4}
	if testing.Short() {
		per = map[string]int{"random": 6, "affine": 8, "clamp": 2}
	}
	var hashing, stopped, withFailures, lowClamp int
	for _, family := range []string{"random", "affine", "clamp"} {
		eps := 6.0
		if family == "clamp" {
			eps = 1.9
		}
		for range per[family] {
			nh := 8 + rng.Intn(9)
			if family == "clamp" {
				nh = 12
			}
			f := settleFormula(rng, family, nh)
			seed := rng.Uint64()
			su, err := NewSetup(f, randx.New(seed), Options{Epsilon: eps})
			if err != nil {
				t.Fatalf("%s: NewSetup: %v\n%s", family, err, cnf.DIMACSString(f))
			}
			if su.easySet {
				continue
			}
			hashing++
			opts := su.amcOptions()
			full, err := counter.ApproxMCSession(bsat.NewSession(f, bsat.Options{SamplingSet: su.h}), randx.New(seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := su.lineTen(full.Count); su.q != want {
				t.Fatalf("%s seed %d: settled q=%d, full run's q=%d (C=%v)\n%s", family, seed, su.q, want, full.Count, cnf.DIMACSString(f))
			}

			// Replay the run round by round and find the first round
			// after which q is settled.
			sess := su.NewSessionWith(sat.Config{})
			run, err := counter.StartApproxMC(sess, randx.New(seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			stop := -1
			for k := 0; ; k++ {
				if _, ok := bruteSettled(su, run.State().Estimates, run.Left()); ok {
					stop = k
					break
				}
				if run.Left() == 0 {
					break
				}
				if err := run.Round(sess); err != nil {
					t.Fatal(err)
				}
			}
			if stop != su.SetupStats().SetupRounds() {
				t.Fatalf("%s seed %d: setup ran %d rounds, q first settled after %d", family, seed, su.SetupStats().SetupRounds(), stop)
			}
			if (su.est == nil) != (run.Left() > 0) {
				t.Fatalf("%s seed %d: pending=%v with %d rounds left", family, seed, su.est == nil, run.Left())
			}

			c, exact, err := su.WitnessCount(sat.Config{}, nil)
			if err != nil || exact || c.Cmp(full.Count) != 0 {
				t.Fatalf("%s seed %d: WitnessCount %v exact=%v (%v), full run %v", family, seed, c, exact, err, full.Count)
			}
			if run.Left() > 0 {
				stopped++
			}
			if !full.Exact && full.Rounds < 67 {
				withFailures++
			}
			if su.q == 1 {
				lowClamp++
			}
		}
	}
	t.Logf("%d hashing-case formulas: %d stopped early, %d with failing rounds, %d at q = 1", hashing, stopped, withFailures, lowClamp)
	if stopped == 0 || withFailures == 0 || lowClamp == 0 {
		t.Fatalf("draw too narrow: %d stopped early, %d with failing rounds, %d at q = 1", stopped, withFailures, lowClamp)
	}
}
