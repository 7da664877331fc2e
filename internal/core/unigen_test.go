package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// sampler is the single-threaded loop the tests below drive: a Setup,
// the session its setup phase built, and one RNG that runs on from
// setup through every round, so each test's random stream is a
// function of its seed alone.
type sampler struct {
	setup *Setup
	sess  *bsat.Session
	stats Stats // round stats; setup stats live in setup
}

// newSampler runs NewSetup on rng and attaches a session.
func newSampler(f *cnf.Formula, rng *randx.RNG, opts Options) (*sampler, error) {
	su, err := NewSetup(f, rng, opts)
	if err != nil {
		return nil, err
	}
	return &sampler{setup: su, sess: su.NewSession()}, nil
}

// Stats returns the counters of the setup phase and every round.
func (smp *sampler) Stats() Stats { return smp.setup.SetupStats().Merge(smp.stats) }

// Sample runs one round (lines 12–22) on rng; ErrFailed is ⊥.
func (smp *sampler) Sample(rng *randx.RNG) (cnf.Assignment, error) {
	return smp.setup.SampleRound(smp.sess, rng, &smp.stats, nil)
}

// SampleMany draws n witnesses, skipping ⊥ rounds, and reports how many
// rounds were attempted in total. It stops early only on hard errors.
func (smp *sampler) SampleMany(rng *randx.RNG, n int) (witnesses []cnf.Assignment, attempts int, err error) {
	for len(witnesses) < n {
		attempts++
		w, serr := smp.Sample(rng)
		switch {
		case serr == nil:
			witnesses = append(witnesses, w)
		case errors.Is(serr, ErrFailed):
			// ⊥: retry with fresh randomness.
		default:
			return witnesses, attempts, serr
		}
	}
	return witnesses, attempts, nil
}

func TestComputeKappaPivotRejectsSmallEpsilon(t *testing.T) {
	for _, eps := range []float64{0, 1, 1.70, 1.71, -3} {
		if _, err := ComputeKappaPivot(eps); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
}

func TestComputeKappaPivotInvertsEpsilon(t *testing.T) {
	for _, eps := range []float64{1.72, 2, 3, 6, 10, 100} {
		kp, err := ComputeKappaPivot(eps)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if kp.Kappa < 0 || kp.Kappa >= 1 {
			t.Fatalf("eps=%v: kappa=%v out of [0,1)", eps, kp.Kappa)
		}
		if got := epsilonOf(kp.Kappa); math.Abs(got-eps) > 1e-6 {
			t.Fatalf("eps=%v: epsilonOf(kappa)=%v", eps, got)
		}
	}
}

func TestPivotAtLeast17(t *testing.T) {
	// Appendix: "The expression used for computing pivot ... ensures
	// that pivot ≥ 17."
	for _, eps := range []float64{1.72, 2, 3, 6, 20, 1000} {
		kp, err := ComputeKappaPivot(eps)
		if err != nil {
			t.Fatal(err)
		}
		if kp.Pivot < 17 {
			t.Fatalf("eps=%v: pivot=%d < 17", eps, kp.Pivot)
		}
	}
}

func TestThresholdOrdering(t *testing.T) {
	for _, eps := range []float64{1.8, 3, 6, 12} {
		kp, err := ComputeKappaPivot(eps)
		if err != nil {
			t.Fatal(err)
		}
		if !(kp.LoThresh < float64(kp.Pivot)) || !(float64(kp.Pivot) < float64(kp.HiThresh)) {
			t.Fatalf("eps=%v: want loThresh < pivot < hiThresh, got %v < %d < %d",
				eps, kp.LoThresh, kp.Pivot, kp.HiThresh)
		}
	}
}

func TestHiThreshGrowsAsEpsilonShrinks(t *testing.T) {
	// §4 "Trading scalability with uniformity": smaller ε ⇒ larger
	// hiThresh ⇒ more BSAT work per call.
	kpTight, _ := ComputeKappaPivot(1.8)
	kpLoose, _ := ComputeKappaPivot(12)
	if kpTight.HiThresh <= kpLoose.HiThresh {
		t.Fatalf("hiThresh(1.8)=%d should exceed hiThresh(12)=%d",
			kpTight.HiThresh, kpLoose.HiThresh)
	}
}

func TestSamplerRejectsBadEpsilon(t *testing.T) {
	f := cnf.New(2)
	if _, err := newSampler(f, randx.New(1), Options{Epsilon: 1.0}); err == nil {
		t.Fatal("epsilon 1.0 accepted")
	}
}

func TestSamplerEasyCase(t *testing.T) {
	// 3 witnesses ≤ hiThresh: easy path, uniform by construction.
	f := cnf.New(2)
	f.AddClause(1, 2)
	rng := randx.New(2)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Stats().EasyCase() {
		t.Fatal("expected easy case")
	}
	counts := map[string]int{}
	vars := f.SamplingVars()
	const n = 3000
	for i := 0; i < n; i++ {
		w, err := smp.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		counts[w.Project(vars)]++
	}
	if len(counts) != 3 {
		t.Fatalf("saw %d distinct witnesses, want 3", len(counts))
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/3.0) > 6*math.Sqrt(n/3.0) {
			t.Fatalf("witness %x count %d far from %d", k, c, n/3)
		}
	}
}

func TestSamplerUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	rng := randx.New(3)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := smp.Sample(rng); err == nil {
		t.Fatal("sampling an unsat formula succeeded")
	}
}

// hardFormula builds a formula whose witness count (1024 over the
// sampling set) exceeds hiThresh at ε=6, forcing the hashing path.
func hardFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

func TestSamplerHashingPath(t *testing.T) {
	f := hardFormula()
	rng := randx.New(4)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if smp.Stats().EasyCase() {
		t.Fatal("expected hashing path")
	}
	if smp.setup.q < 1 {
		t.Fatalf("q = %d", smp.setup.q)
	}
	got := 0
	for i := 0; i < 50; i++ {
		w, err := smp.Sample(rng)
		if errors.Is(err, ErrFailed) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		got++
	}
	if got == 0 {
		t.Fatal("no successful samples in 50 rounds")
	}
	// Theorem 1: success probability ≥ 0.62. With 50 rounds the
	// empirical rate should comfortably exceed 0.4.
	if p := smp.Stats().SuccessProb(); p < 0.4 {
		t.Fatalf("success probability %.2f implausibly low", p)
	}
}

// TestTheorem1Bounds empirically validates the almost-uniformity
// guarantee on a small instance: each witness frequency must lie within
// the (1+ε) band around 1/(|R_F|−1), with generous statistical slack.
func TestTheorem1Bounds(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	f := hardFormula() // |R_F↓S| = 1024
	rng := randx.New(5)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	counts := map[string]int{}
	vars := f.SamplingSet
	ws, _, err := smp.SampleMany(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		counts[w.Project(vars)]++
	}
	R := 1024.0
	eps := 6.0
	// Expected per-witness probability bounds from Theorem 1.
	loP := 1 / ((1 + eps) * (R - 1))
	hiP := (1 + eps) / (R - 1)
	// Allow 5-sigma binomial slack on top.
	for k, c := range counts {
		p := float64(c) / n
		sigma := math.Sqrt(hiP * (1 - hiP) / n)
		if p > hiP+5*sigma {
			t.Fatalf("witness %x frequency %.5f exceeds upper bound %.5f", k, p, hiP)
		}
		_ = loP // low side unverifiable per-witness at this sample size
	}
	// Aggregate check: no witness should dominate; the max/min observed
	// ratio bounded loosely.
	if len(counts) < 500 {
		t.Fatalf("only %d distinct witnesses in %d samples; distribution too skewed", len(counts), n)
	}
}

// TestUniformityTVD compares UniGen's output distribution to uniform by
// total-variation distance on a small witness space.
func TestUniformityTVD(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// 64 witnesses on sampling set of 6 free vars.
	f := cnf.New(8)
	f.AddClause(7, 8)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6}
	rng := randx.New(6)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	ws, _, err := smp.SampleMany(rng, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, w := range ws {
		counts[w.Project(f.SamplingSet)]++
	}
	if len(counts) != 64 {
		t.Fatalf("saw %d distinct witnesses, want 64", len(counts))
	}
	tvd := 0.0
	for _, c := range counts {
		tvd += math.Abs(float64(c)/n - 1.0/64)
	}
	tvd /= 2
	// Pure sampling noise at n=8000, 64 cells gives TVD ≈ 0.022.
	// UniGen should stay close to that; 0.15 would indicate real skew
	// (a (1+ε)=7-factor skew concentrated on half the space gives ~0.37).
	if tvd > 0.15 {
		t.Fatalf("TVD from uniform = %.3f, want < 0.15", tvd)
	}
}

// TestLemma2SamplingSetEquivalence: hashing on an independent support S
// must produce the same witness distribution as hashing on the full
// support X (Lemma 2). We compare empirical distributions.
func TestLemma2SamplingSetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	// x7 = x1⊕x2, x8 = x1∧x3 (Tseitin-style dependent vars);
	// S = {1..6} independent support, X = all 8.
	f := cnf.New(8)
	f.AddXOR([]cnf.Var{7, 1, 2}, false) // x7 ⊕ x1 ⊕ x2 = 0
	// x8 <-> x1∧x3.
	f.AddClause(-8, 1)
	f.AddClause(-8, 3)
	f.AddClause(8, -1, -3)
	S := []cnf.Var{1, 2, 3, 4, 5, 6}

	sample := func(seed uint64, sset []cnf.Var) map[string]int {
		rng := randx.New(seed)
		g := f.Clone()
		g.SamplingSet = sset
		smp, err := newSampler(g, rng, Options{Epsilon: 6})
		if err != nil {
			t.Fatal(err)
		}
		ws, _, err := smp.SampleMany(rng, 4000)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, w := range ws {
			counts[w.Project(S)]++ // compare projections on S in both runs
		}
		return counts
	}
	cS := sample(7, S)
	cX := sample(8, nil) // full support
	if len(cS) != 64 || len(cX) != 64 {
		t.Fatalf("distinct witnesses: S=%d X=%d, want 64", len(cS), len(cX))
	}
	tvd := 0.0
	for k, a := range cS {
		tvd += math.Abs(float64(a)-float64(cX[k])) / 4000
	}
	tvd /= 2
	if tvd > 0.2 {
		t.Fatalf("TVD between S-hashed and X-hashed distributions = %.3f", tvd)
	}
}

func TestSampleManyCountsAttempts(t *testing.T) {
	f := hardFormula()
	rng := randx.New(9)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	ws, attempts, err := smp.SampleMany(rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 10 || attempts < 10 {
		t.Fatalf("ws=%d attempts=%d", len(ws), attempts)
	}
}

func TestXORLengthUsesSamplingSetOnly(t *testing.T) {
	// §4/E6: average XOR length must be ≈|S|/2, not |X|/2.
	f := hardFormula() // |S|=10, |X|=12
	rng := randx.New(10)
	smp, err := newSampler(f, rng, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := smp.SampleMany(rng, 20); err != nil {
		t.Fatal(err)
	}
	avg := smp.Stats().AvgXORLen()
	if avg <= 0 || avg > 7 { // |S|/2 = 5; |X|/2 = 6 would also pass, but 10/2+2σ < 7
		t.Fatalf("avg xor len = %.2f, want ≈ 5", avg)
	}
	// Every XOR row must only mention sampling vars — verified
	// indirectly: a row mentioning vars 11/12 would make avg larger and,
	// more importantly, hashfam.Draw only sees smp.s.
	for _, v := range smp.setup.SamplingSet() {
		if v > 10 {
			t.Fatalf("sampling set contains dependent var %d", v)
		}
	}
}

func TestBudgetPropagation(t *testing.T) {
	// With an absurdly small conflict budget on a hard formula, setup or
	// sampling must surface ErrBudget (not hang or mislabel).
	rng := randx.New(11)
	n := 40
	f := cnf.New(n)
	r2 := randx.New(12)
	for i := 0; i < 160; i++ {
		c := make(cnf.Clause, 0, 3)
		for j := 0; j < 3; j++ {
			c = append(c, cnf.MkLit(cnf.Var(r2.Intn(n)+1), r2.Bool()))
		}
		f.AddClauseLits(c)
	}
	_, err := newSampler(f, rng, Options{Epsilon: 6, Solver: sat.Config{MaxConflicts: 1}})
	// Either the formula is easy enough to finish within budget (fine)
	// or we get a budget error; both acceptable, crashes are not.
	if err != nil && !errors.Is(err, ErrBudget) {
		// ApproxMC wraps its own budget error; accept any error that
		// mentions budget exhaustion.
		t.Logf("setup error (accepted): %v", err)
	}
}

// TestInterruptedRoundDoesNotRetry: the §5 retry protocol answers an
// exhausted conflict budget. A raised session interrupt is a
// cancellation, which every retry would hit again at Solve entry, so
// the round gives up after its first BSAT call with ErrBudget.
func TestInterruptedRoundDoesNotRetry(t *testing.T) {
	su, err := NewSetup(hardFormula(), randx.New(4), Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if su.Easy() {
		t.Fatal("expected hashing path")
	}
	var intr atomic.Bool
	intr.Store(true)
	sess := su.NewSession()
	sess.SetInterrupt(&intr)
	var st Stats
	if _, err := su.SampleRound(sess, randx.New(5), &st, nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("interrupted round: err = %v, want ErrBudget", err)
	}
	if got := st[tally.BSATCalls]; got != 1 {
		t.Fatalf("interrupted round made %d BSAT calls, want 1", got)
	}
}
