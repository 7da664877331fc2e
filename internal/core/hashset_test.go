package core

import (
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// prunedFormula declares all 12 variables as its sampling set, but two
// of them are defined by the rest: x11 = x1 ⊕ x2 and x12 = x3 ∧ x4.
// The pass drops x1 (x11 ⊕ x2 defines it) and x12, so the hash set is
// x2..x11. 2^10 witnesses: the hashing path.
func prunedFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(-11, 1, 2)
	f.AddClause(-11, -1, -2)
	f.AddClause(11, -1, 2)
	f.AddClause(11, 1, -2)
	f.AddClause(-12, 3)
	f.AddClause(-12, 4)
	f.AddClause(12, -3, -4)
	return f
}

func vars(lo, hi int) []cnf.Var {
	var out []cnf.Var
	for v := lo; v <= hi; v++ {
		out = append(out, cnf.Var(v))
	}
	return out
}

func TestHashSetDropsDefinedVariables(t *testing.T) {
	su := buildSetup(t, prunedFormula())
	if got := su.SamplingSet(); !reflect.DeepEqual(got, vars(1, 12)) {
		t.Fatalf("sampling set %v, want 1..12", got)
	}
	if got := su.HashSet(); !reflect.DeepEqual(got, vars(2, 11)) {
		t.Fatalf("hash set %v, want 2..11", got)
	}
	if su.easySet || su.q < 1 || su.q > 10 {
		t.Fatalf("easy=%v q=%d, want the hashing path with q ≤ |H| = 10", su.easySet, su.q)
	}
	// Rows are drawn over the hash set: each holds ~|H|/2 variables,
	// never one of the dropped ones.
	sess := su.NewSession()
	var st Stats
	for i := range 8 {
		if _, err := su.SampleRound(sess, randx.Stream(3, uint64(i)), &st, nil); err != nil && !errors.Is(err, ErrFailed) {
			t.Fatal(err)
		}
	}
	if st.XORRows() == 0 || st.XORLenSum() > 10*st.XORRows() {
		t.Fatalf("%d rows with %d variables: rows are not over the 10-variable hash set", st.XORRows(), st.XORLenSum())
	}
}

// TestHashSetKeepsFixedVariables pins the unit-clause rule: a sampling
// variable fixed by a unit clause is a constant, defined by nothing,
// yet kept without a check — which is what lets a delta's conjoined
// formula keep its base's hash set.
func TestHashSetKeepsFixedVariables(t *testing.T) {
	f := prunedFormula()
	f.AddClause(5)
	f.AddClause(-12)
	su := buildSetup(t, f)
	if got, want := su.HashSet(), append(vars(2, 11), 12); !reflect.DeepEqual(got, want) {
		t.Fatalf("hash set %v, want %v", got, want)
	}
}

// TestHashSetNeverEmpty: when every declared variable is a constant the
// pass would empty the set, which a BSAT session reads as "all
// variables"; setup keeps the declared set and takes the easy case.
func TestHashSetNeverEmpty(t *testing.T) {
	f := cnf.New(10) // x1 forced by resolution, x2..x10 free
	f.AddClause(1, 2)
	f.AddClause(1, -2)
	su, err := NewSetup(f, randx.New(1), Options{Epsilon: 6, SamplingSet: []cnf.Var{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(su.HashSet(), []cnf.Var{1}) || !su.easySet || len(su.easy) != 1 {
		t.Fatalf("hash set %v, easy %v with %d witnesses; want [1], easy with 1", su.HashSet(), su.easySet, len(su.easy))
	}
}

// TestHashSetIndependentOfPresentation: the pass runs on the canonical
// form, so a formula posted with its clauses and literals reordered
// gets the same hash set and samples the same witnesses.
func TestHashSetIndependentOfPresentation(t *testing.T) {
	f := prunedFormula()
	g := cnf.New(f.NumVars)
	for i := len(f.Clauses) - 1; i >= 0; i-- {
		c := slices.Clone(f.Clauses[i])
		slices.Reverse(c)
		g.Clauses = append(g.Clauses, c)
	}
	a, b := buildSetup(t, f), buildSetup(t, g)
	if !reflect.DeepEqual(a.HashSet(), b.HashSet()) {
		t.Fatalf("hash sets %v and %v differ across presentations", a.HashSet(), b.HashSet())
	}
	if want, got := sampleStream(t, a, 11, 6), sampleStream(t, b, 11, 6); !reflect.DeepEqual(want, got) {
		t.Fatalf("presentations sampled %q and %q", want, got)
	}
}

// TestHashSetDeltaMatchesCold pins the delta contract on a base that
// prunes: SetupWith on a pooled base session gets the hash set, q and
// witnesses a cold prepare of the conjoined formula gets. Here the
// assumption on x1 makes it fixed, so the conditioned hash set keeps
// x1 and drops x2 instead — a set the base session's blocking clauses
// do not range over.
func TestHashSetDeltaMatchesCold(t *testing.T) {
	base := buildSetup(t, prunedFormula())
	cases := []struct {
		lits     []int
		wantHash []cnf.Var
	}{
		{[]int{1, -5}, append(vars(1, 1), vars(3, 11)...)}, // 2^8 witnesses: hashing
		{[]int{1, -2, 3, -4, 5, 6, 7}, vars(1, 10)},        // 2^3 witnesses: easy
	}
	for _, tc := range cases {
		assumps := make([]cnf.Lit, len(tc.lits))
		for i, l := range tc.lits {
			assumps[i] = cnf.FromDIMACS(l)
		}
		assumps = NormalizeAssumptions(assumps)
		conj, err := base.Conjoin(assumps)
		if err != nil {
			t.Fatal(err)
		}
		pool := &lender{su: base}
		cond, err := base.SetupWith(pool, conj, assumps, nil, randx.New(PrepSeed(conj, nil)))
		if err != nil {
			t.Fatal(err)
		}
		sess := pool.Checkout(1)[0]
		sess.SetAssumptions(assumps)
		cold := buildSetup(t, conj)
		if got := cond.HashSet(); !reflect.DeepEqual(got, tc.wantHash) || !reflect.DeepEqual(got, cold.HashSet()) {
			t.Fatalf("%v: delta hash set %v, cold %v, want %v", tc.lits, got, cold.HashSet(), tc.wantHash)
		}
		if cond.easySet != cold.easySet || cond.q != cold.q {
			t.Fatalf("%v: delta easy=%v q=%d, cold easy=%v q=%d", tc.lits, cond.easySet, cond.q, cold.easySet, cold.q)
		}
		if !cond.easySet {
			dc, _, _, derr := cond.WitnessCount(nil, nil)
			cc, _, _, cerr := cold.WitnessCount(nil, nil)
			if derr != nil || cerr != nil || dc.Cmp(cc) != 0 {
				t.Fatalf("%v: delta count %v (%v), cold %v (%v)", tc.lits, dc, derr, cc, cerr)
			}
		}
		coldSess := cold.NewSession()
		vs := cold.SamplingSet()
		var st Stats
		for i := range 6 {
			dw, derr := cond.SampleRound(sess, randx.Stream(5, uint64(i)), &st, nil)
			cw, cerr := cold.SampleRound(coldSess, randx.Stream(5, uint64(i)), &st, nil)
			if !errors.Is(derr, cerr) || (derr == nil && dw.Project(vs) != cw.Project(vs)) {
				t.Fatalf("%v round %d: delta (%v, %v), cold (%v, %v)", tc.lits, i, dw, derr, cw, cerr)
			}
		}
	}
}

// TestHashSetInterruptFailsSetup: an interrupted pass fails the setup
// instead of hashing over a half-pruned set.
func TestHashSetInterruptFailsSetup(t *testing.T) {
	var intr atomic.Bool
	intr.Store(true)
	f := prunedFormula()
	_, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{Epsilon: 6, Solver: sat.Config{Interrupt: &intr}})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("interrupted setup: %v, want ErrBudget", err)
	}
}
