package core

import (
	"reflect"
	"testing"

	"unigen/internal/randx"
	"unigen/internal/tally"
)

func TestStatsMerge(t *testing.T) {
	setup := Stats{tally.BSATCalls: 1, tally.SetupRounds: 15, tally.Q: 7}
	w1 := Stats{tally.Samples: 3, tally.Failures: 1, tally.BSATCalls: 14, tally.XORRows: 80,
		tally.XORLenSum: 400, tally.Propagations: 1000,
		tally.Learned: 50, tally.Removed: 10, tally.Compactions: 2, tally.ArenaBytes: 4096}
	w2 := Stats{tally.Samples: 2, tally.Failures: 2, tally.BSATCalls: 12, tally.XORRows: 64,
		tally.XORLenSum: 320, tally.Propagations: 500,
		tally.Learned: 30, tally.Removed: 5, tally.Compactions: 1, tally.ArenaBytes: 8192}

	got := setup.Merge(w1).Merge(w2)
	want := Stats{
		tally.Samples: 5, tally.Failures: 3, tally.BSATCalls: 27,
		tally.XORRows: 144, tally.XORLenSum: 720, tally.Propagations: 1500,
		// Counters add; the ArenaBytes gauge takes the max across
		// contributing sessions.
		tally.Learned: 80, tally.Removed: 15, tally.Compactions: 3, tally.ArenaBytes: 8192,
		tally.SetupRounds: 15, tally.Q: 7,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged = %+v, want %+v", got, want)
	}
	if got.AvgXORLen() != 5 || got.SuccessProb() != 5.0/8 || got.Rounds() != 8 {
		t.Fatalf("derived columns: avg=%v succ=%v rounds=%v", got.AvgXORLen(), got.SuccessProb(), got.Rounds())
	}
	// Merge must not mutate its operands (value semantics).
	if setup.Samples() != 0 || w1.Samples() != 3 {
		t.Fatal("Merge mutated an operand")
	}
	// Every counter is an integer, so Merge is order-insensitive — the
	// property that frees the parallel collector from float ordering
	// concerns.
	if rev := setup.Merge(w2).Merge(w1); !reflect.DeepEqual(rev, got) {
		t.Fatalf("merge order sensitivity: %+v vs %+v", rev, got)
	}
}

func TestStatsMergeEasyCaseAndQ(t *testing.T) {
	a := Stats{tally.EasyCase: 1, tally.Q: 3}
	b := Stats{tally.Q: 9}
	if m := a.Merge(b); !m.EasyCase() || m.Q() != 9 {
		t.Fatalf("merged = %+v", m)
	}
	if m := b.Merge(a); !m.EasyCase() || m.Q() != 9 {
		t.Fatalf("merge not symmetric on EasyCase/Q: %+v", b.Merge(a))
	}
}

// TestSamplerStatsIncludeSetup guards the setup half of what a sampler
// reports: SetupStats carries the setup's ApproxMC rounds and q, and a
// view merged from it keeps them.
func TestSamplerStatsIncludeSetup(t *testing.T) {
	f := hardFormula()
	smp, err := newSampler(f, randx.New(21), Options{Epsilon: 6, ApproxMCRounds: 15})
	if err != nil {
		t.Fatal(err)
	}
	st := smp.Stats()
	if st.SetupRounds() == 0 || st.Q() == 0 {
		t.Fatalf("setup stats missing from sampler view: %+v", st)
	}
	if st.Q() != smp.setup.SetupStats().Q() {
		t.Fatalf("Q mismatch: %d vs %d", st.Q(), smp.setup.SetupStats().Q())
	}
}
