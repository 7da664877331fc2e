package core

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/testformula"
)

// lender lends sessions over su, building them with su's solver
// configuration, and parks those that come back undoomed.
type lender struct {
	su      *Setup
	idle    []*bsat.Session
	out     int // checked out and not back
	retired int
}

func (l *lender) Checkout(n int) []*bsat.Session {
	ss := make([]*bsat.Session, n)
	for i := range ss {
		if k := len(l.idle); k > 0 {
			ss[i], l.idle = l.idle[k-1], l.idle[:k-1]
		} else {
			ss[i] = l.su.NewSession()
		}
	}
	l.out += n
	return ss
}

func (l *lender) Checkin(ss []*bsat.Session, doomed []bool) {
	l.out -= len(ss)
	for i, sess := range ss {
		if doomed[i] {
			l.retired++
			continue
		}
		sess.SetAssumptions(nil)
		sess.SetInterrupt(nil)
		l.idle = append(l.idle, sess)
	}
}

// fanOut makes every ApproxMC run of this package's setups use w
// sessions, as many as the rounds left allow, until the test ends.
func fanOut(t *testing.T, w int) {
	t.Helper()
	saved := sessionTokens
	t.Cleanup(func() { sessionTokens = saved })
	sessionTokens = func(n int) (int, func()) { return max(min(n, w-1), 0), func() {} }
}

// sameCount reports whether two setups hold the same estimate or the
// same run state, q and setup rounds: everything of a setup that its
// ApproxMC rounds decide.
func sameCount(a, b *Setup) bool {
	same := func(x, y *big.Int) bool { return (x == nil) == (y == nil) && (x == nil || x.Cmp(y) == 0) }
	if !same(a.est, b.est) || a.q != b.q || a.easySet != b.easySet || !reflect.DeepEqual(a.h, b.h) ||
		a.base.SetupRounds() != b.base.SetupRounds() || a.amc.RNG != b.amc.RNG ||
		a.amc.Start != b.amc.Start || a.amc.Left != b.amc.Left || len(a.amc.Estimates) != len(b.amc.Estimates) {
		return false
	}
	for i, e := range a.amc.Estimates {
		if e.Cmp(b.amc.Estimates[i]) != 0 {
			return false
		}
	}
	return true
}

// TestSetupFanOutEncodeIdentical: NewSetup with its ApproxMC rounds on
// 1, 2 and 3 sessions encodes to the same bytes and finishes to the
// same WitnessCount, on hardFormula, prunedFormula and hashing-case
// testformula formulas, failing rounds included; and
// SetupWith on 1 and 2 pooled sessions gets the estimate state, q and
// count of a cold NewSetup of the conjoined formula, and checks every
// session it leased back in.
func TestSetupFanOutEncodeIdentical(t *testing.T) {
	fixtures := []struct {
		f   *cnf.Formula
		eps float64
	}{{hardFormula(), 6}, {prunedFormula(), 6}}
	rng := randx.New(31)
	for _, family := range []string{"random", "affine", "affine"} {
		fixtures = append(fixtures, struct {
			f   *cnf.Formula
			eps float64
		}{testformula.Draw(rng, family, 8+rng.Intn(4)), 6})
	}
	hashing := 0
	for k, fx := range fixtures {
		var want []byte
		var wantCount *big.Int
		for w := 1; w <= 3; w++ {
			fanOut(t, w)
			su, err := NewSetup(fx.f, randx.New(PrepSeed(fx.f, nil)), Options{Epsilon: fx.eps})
			if err != nil {
				t.Fatalf("fixture %d W=%d: %v", k, w, err)
			}
			if su.easySet {
				break
			}
			blob := encode(t, su)
			c, _, _, err := su.WitnessCount(nil, nil)
			if err != nil {
				t.Fatalf("fixture %d W=%d: WitnessCount: %v", k, w, err)
			}
			if w == 1 {
				want, wantCount = blob, c
				hashing++
				continue
			}
			if !bytes.Equal(blob, want) || c.Cmp(wantCount) != 0 {
				t.Fatalf("fixture %d: W=%d encodes %d bytes (equal: %v) and counts %v; W=1 counts %v\n%s",
					k, w, len(blob), bytes.Equal(blob, want), c, wantCount, cnf.DIMACSString(fx.f))
			}
		}
	}
	if hashing < 4 {
		t.Fatalf("only %d of %d fixtures take the hashing case", hashing, len(fixtures))
	}

	fanOut(t, 1)
	base := buildSetup(t, hardFormula())
	assumps := NormalizeAssumptions([]cnf.Lit{cnf.FromDIMACS(1), cnf.FromDIMACS(-2)})
	conj, err := base.Conjoin(assumps)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 2; w++ {
		fanOut(t, 1)
		cold := buildSetup(t, conj)
		if cold.easySet {
			t.Fatal("the conjoined formula takes the easy case; the test needs it to hash")
		}
		fanOut(t, w)
		pool := &lender{su: base}
		cond, err := base.SetupWith(pool, conj, assumps, nil, randx.New(PrepSeed(conj, nil)))
		if err != nil {
			t.Fatal(err)
		}
		if pool.out != 0 || pool.retired != 0 || len(pool.idle) != w {
			t.Fatalf("W=%d: %d sessions still out, %d retired, %d idle", w, pool.out, pool.retired, len(pool.idle))
		}
		if !sameCount(cond, cold) {
			t.Fatalf("W=%d: delta q=%d rounds=%d state %+v, cold q=%d rounds=%d state %+v", w,
				cond.q, cond.base.SetupRounds(), cond.amc, cold.q, cold.base.SetupRounds(), cold.amc)
		}
		dc, _, _, derr := cond.WitnessCount(nil, nil)
		cc, _, _, cerr := cold.WitnessCount(nil, nil)
		if derr != nil || cerr != nil || dc.Cmp(cc) != 0 {
			t.Fatalf("W=%d: delta count %v (%v), cold %v (%v)", w, dc, derr, cc, cerr)
		}
	}
}

// TestSetupHoldsNoInterrupt: a Setup keeps neither the interrupt it was
// prepared under nor a session. After NewSetup returns, raising the
// flag it was given reaches no session NewSession builds, whichever
// goroutine builds it; the same holds for a Setup DecodeSetup rehydrates
// under a raised flag, and WitnessCount with no flag finishes the count.
func TestSetupHoldsNoInterrupt(t *testing.T) {
	var flag atomic.Bool
	su, err := NewSetup(hardFormula(), randx.New(4), Options{Epsilon: 6, Solver: sat.Config{Interrupt: &flag}})
	if err != nil {
		t.Fatal(err)
	}
	if su.Easy() {
		t.Fatal("expected hashing path")
	}
	flag.Store(true)
	rounds := func(name string, su *Setup) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 4*3)
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := su.NewSession()
				for r := range 3 {
					var st Stats
					if _, err := su.SampleRound(sess, randx.New(uint64(10*g+r)), &st, nil); err != nil && !errors.Is(err, ErrFailed) {
						errs <- err
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: round on a fresh session: %v", name, err)
		}
	}
	rounds("NewSetup", su)
	blob, err := su.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSetup(blob, Options{Epsilon: 6, Solver: sat.Config{Interrupt: &flag}})
	if err != nil {
		t.Fatal(err)
	}
	rounds("DecodeSetup", got)
	if _, _, _, err := su.WitnessCount(nil, nil); err != nil {
		t.Fatalf("WitnessCount: %v", err)
	}
}
