package counter

import (
	"math/big"
	"runtime"
	"slices"
	"testing"
	"time"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/testformula"
)

// noLeak returns a check that the goroutine count is back to what it
// is now, polling briefly for goroutines that have closed their last
// channel but not yet exited.
func noLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the rounds", runtime.NumGoroutine(), before)
			}
		}
	}
}

// cloneState copies st with its own estimates slice.
func cloneState(st ApproxMCState) ApproxMCState {
	st.Estimates = slices.Clone(st.Estimates)
	return st
}

// sameState reports whether two run states are equal, estimates
// compared by value.
func sameState(a, b ApproxMCState) bool {
	return a.RNG == b.RNG && a.Start == b.Start && a.Left == b.Left &&
		slices.EqualFunc(a.Estimates, b.Estimates, func(x, y *big.Int) bool { return x.Cmp(y) == 0 })
}

// TestRoundsFanOutMatchesSequential: over random CNF+XOR formulas with
// |H| = 8–16, failing rounds included, a run on W = 1..4 sessions that
// stops after its k-th round, for every k, holds the one-session run's
// state after k rounds: the RNG, the search start, the rounds left and
// the estimates. Finished from there on the same sessions, it returns
// the one-session run's count and rounds. Two full runs at the same W
// make the same BSAT calls and install the same XOR rows, and no run
// leaves a goroutine behind.
func TestRoundsFanOutMatchesSequential(t *testing.T) {
	const rounds = 8
	rng := randx.New(35) // one of the four formulas has a failing round within 8
	families := []string{"random", "affine", "random", "affine"}
	failing := 0
	for iter, family := range families {
		f := testformula.Draw(rng, family, 8+rng.Intn(9))
		opts := ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, SamplingSet: f.SamplingSet, MaxHashRounds: rounds}
		seed := rng.Uint64()
		sessions := func(w int) []*bsat.Session {
			ss := make([]*bsat.Session, w)
			for i := range ss {
				ss[i] = bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingSet})
			}
			return ss
		}
		start := func(ss []*bsat.Session) *ApproxMCRun {
			t.Helper()
			run, err := StartApproxMC(ss[0], randx.New(seed), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			return run
		}

		one := sessions(1)
		seq := start(one)
		states := []ApproxMCState{cloneState(seq.State())}
		if err := seq.Rounds(one, func() bool {
			states = append(states, cloneState(seq.State()))
			return false
		}); err != nil {
			t.Fatal(err)
		}
		want, err := seq.Finish()
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, cnf.DIMACSString(f))
		}
		if !want.Exact && want.Rounds < rounds {
			failing++
		}

		for w := 1; w <= 4; w++ {
			leak := noLeak(t)
			for k := range states {
				ss := sessions(w)
				run := start(ss)
				if k > 0 {
					n := 0
					if err := run.Rounds(ss, func() bool { n++; return n == k }); err != nil {
						t.Fatal(err)
					}
				}
				if got := run.State(); !sameState(got, states[k]) {
					t.Fatalf("iter %d W=%d: state after %d rounds %+v, one session's %+v", iter, w, k, got, states[k])
				}
				got, err := run.Finish(ss...)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count.Cmp(want.Count) != 0 || got.Rounds != want.Rounds || got.Exact != want.Exact {
					t.Fatalf("iter %d W=%d: stopped after %d rounds, finished to %v over %d rounds; one session %v over %d",
						iter, w, k, got.Count, got.Rounds, want.Count, want.Rounds)
				}
			}
			var calls, rows [2]int
			for i := range 2 {
				ss := sessions(w)
				res, err := start(ss).Finish(ss...)
				if err != nil {
					t.Fatal(err)
				}
				calls[i], rows[i] = res.BSATCalls, res.TotalXORRows
			}
			if calls[0] != calls[1] || rows[0] != rows[1] {
				t.Fatalf("iter %d W=%d: two runs made %v BSAT calls and %v XOR rows", iter, w, calls, rows)
			}
			if w == 1 && (calls[0] != want.BSATCalls || rows[0] != want.TotalXORRows) {
				t.Fatalf("iter %d: %d BSAT calls and %d XOR rows in one Finish, %d and %d round by round",
					iter, calls[0], rows[0], want.BSATCalls, want.TotalXORRows)
			}
			leak()
		}
	}
	if failing == 0 {
		t.Fatal("no formula had a failing round")
	}
}

// TestRoundsPanicReachesCaller: a round that panics on a goroutine of
// its own, here on a nil session, raises the panic on the caller's
// goroutine once every round in flight has ended, and leaves no
// goroutine behind.
func TestRoundsPanicReachesCaller(t *testing.T) {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	opts := ApproxMCOptions{Epsilon: 0.8, Delta: 0.2, SamplingSet: f.SamplingSet}
	sess := bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingSet})
	run, err := StartApproxMC(sess, randx.New(5), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	leak := noLeak(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a round on a nil session did not panic on the caller's goroutine")
			}
		}()
		_ = run.Rounds([]*bsat.Session{sess, nil, bsat.NewSession(f, bsat.Options{SamplingSet: f.SamplingSet})}, nil)
	}()
	leak()
}
