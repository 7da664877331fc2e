package core

import (
	"math/big"
	"slices"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/randx"
	"unigen/internal/testformula"
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

// TestSettledStopMatchesFullRun: over random CNF+XOR formulas with
// |H| = 8–16, each prepared from its own seed, the setup's stop is
// exact. Its q equals line 10 for a full ApproxMC run on a fresh
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
			f := testformula.Draw(rng, family, nh)
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
			fullSess := bsat.NewSession(f, bsat.Options{SamplingSet: su.h})
			fullRun, err := counter.StartApproxMC(fullSess, randx.New(seed), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := fullRun.Finish(fullSess)
			if err != nil {
				t.Fatal(err)
			}
			if want := su.lineTen(full.Count); su.q != want {
				t.Fatalf("%s seed %d: settled q=%d, full run's q=%d (C=%v)\n%s", family, seed, su.q, want, full.Count, cnf.DIMACSString(f))
			}

			// Replay the run round by round and find the first round
			// after which q is settled.
			sess := su.NewSession()
			run, err := counter.StartApproxMC(sess, randx.New(seed), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			k, stop := 0, -1
			settled := func() bool {
				_, ok := bruteSettled(su, run.State().Estimates, run.Left())
				if ok {
					stop = k
				}
				k++
				return ok
			}
			if !settled() {
				if err := run.Rounds([]*bsat.Session{sess}, settled); err != nil {
					t.Fatal(err)
				}
			}
			if stop != su.SetupStats().SetupRounds() {
				t.Fatalf("%s seed %d: setup ran %d rounds, q first settled after %d", family, seed, su.SetupStats().SetupRounds(), stop)
			}
			if (su.est == nil) != (run.Left() > 0) {
				t.Fatalf("%s seed %d: pending=%v with %d rounds left", family, seed, su.est == nil, run.Left())
			}

			c, exact, ran, err := su.WitnessCount(nil, nil)
			if err != nil || exact || c.Cmp(full.Count) != 0 {
				t.Fatalf("%s seed %d: WitnessCount %v exact=%v (%v), full run %v", family, seed, c, exact, err, full.Count)
			}
			if _, _, again, _ := su.WitnessCount(nil, nil); ran != (run.Left() > 0) || again {
				t.Fatalf("%s seed %d: WitnessCount ran=%v then %v with %d rounds left", family, seed, ran, again, run.Left())
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
