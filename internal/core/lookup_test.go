package core

import (
	"errors"
	"fmt"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/tally"
	"unigen/internal/testformula"
)

// lookupRound is lines 12–22 of Algorithm 1 evaluated over table, the
// setup's R↓H in canonical order (testformula.Table): each cell is
// {x ∈ R↓H : h(x)}, capped at hiThresh+1, with the hash and index
// drawn from rng as SampleRound draws them. It tallies into st what
// SampleRound tallies of a round that exhausts no budget.
func lookupRound(su *Setup, table []cnf.Assignment, rng *randx.RNG, st *Stats) (cnf.Assignment, error) {
	kp := su.kp
	for i := su.q - 3; i <= su.q; i++ {
		h := hashfam.Draw(rng, su.h, max(i, 1))
		st[tally.XORRows] += int64(h.M())
		st[tally.XORLenSum] += int64(h.TotalLen())
		st[tally.BSATCalls]++
		var cell []cnf.Assignment
		for _, x := range table {
			if len(cell) <= kp.HiThresh && h.Evaluate(x) {
				cell = append(cell, x)
			}
		}
		if n := len(cell); float64(n) >= kp.LoThresh && n <= kp.HiThresh {
			st[tally.Samples]++
			return cell[rng.Intn(n)], nil
		}
	}
	st[tally.Failures]++
	return nil, ErrFailed
}

// checkRoundsMatchLookup runs rounds rounds of su on sess, each from
// its own stream of seed, against lookupRound over R↓H of f ∧ assumps,
// where f is the formula sess was built over. Each round must agree
// on the ⊥ outcome, the chosen witness's projection onto H, the RNG
// state it leaves, and its Samples, Failures, BSATCalls, XORRows and
// XORLenSum; each chosen witness must be a model of f ∧ assumps; and
// each round must record one cell span per BSAT call. It returns how
// many cells their known members alone showed too big: those must
// report hiThresh+1 witnesses and no solver work. It also returns the
// rounds' stats merged.
func checkRoundsMatchLookup(t *testing.T, name string, su *Setup, sess *bsat.Session, f *cnf.Formula, assumps []cnf.Lit, seed uint64, rounds int) (alone int, merged Stats) {
	t.Helper()
	if su.easySet {
		t.Fatalf("%s: the easy case, which hashes nothing", name)
	}
	if len(su.h) > testformula.MaxTableVars {
		t.Fatalf("%s: |H| = %d, too large for a table", name, len(su.h))
	}
	table := testformula.Table(f, su.h, assumps)
	for k := range rounds {
		var got, want Stats
		rs, rl := randx.Stream(seed, uint64(k)), randx.Stream(seed, uint64(k))
		tr := obs.NewTrace()
		w, err := su.SampleRound(sess, rs, &got, tr.Root())
		x, lerr := lookupRound(su, table, rl, &want)
		cells := tr.Snapshot().Children
		for _, c := range cells {
			if c.Counters["known"] > int64(su.kp.HiThresh) {
				alone++
				if c.Counters["witnesses"] != int64(su.kp.HiThresh+1) || c.Counters["conflicts"] != 0 || c.Counters["propagations"] != 0 {
					t.Errorf("%s round %d: a cell of %d known members reads %v", name, k, c.Counters["known"], c.Counters)
				}
			}
		}
		if int64(len(cells)) != got.BSATCalls() {
			t.Errorf("%s round %d: %d cell spans for %d BSAT calls", name, k, len(cells), got.BSATCalls())
		}
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatalf("%s round %d: %v", name, k, err)
		}
		same := errors.Is(err, ErrFailed) == errors.Is(lerr, ErrFailed) && rs.State() == rl.State()
		if same && err == nil {
			same = w.Project(su.h) == x.Project(su.h)
			for _, l := range assumps {
				if w.Get(l.Var()) == l.Neg() {
					t.Fatalf("%s round %d: witness violates assumption %d", name, k, l.DIMACS())
				}
			}
			if !w.Satisfies(f) {
				t.Fatalf("%s round %d: witness does not satisfy the formula", name, k)
			}
		}
		for _, row := range []tally.ID{tally.Samples, tally.Failures, tally.BSATCalls, tally.XORRows, tally.XORLenSum} {
			same = same && got[row] == want[row]
		}
		if !same {
			t.Errorf("%s round %d: session (%v, samples %d failures %d calls %d rows %d len %d), lookup (%v, %d %d %d %d %d)",
				name, k, err, got.Samples(), got.Failures(), got.BSATCalls(), got.XORRows(), got.XORLenSum(),
				lerr, want.Samples(), want.Failures(), want.BSATCalls(), want.XORRows(), want.XORLenSum())
		}
		merged = merged.Merge(got)
	}
	return alone, merged
}

// TestSampleRoundMatchesLookup checks Algorithm 1's cells at workload
// scale against a lookup oracle that shares no enumeration code with
// the session: the unibench formulas (benchgen small scale, seed
// 0xbe7c), 60 rounds each on one long-lived session, and Karatsuba
// under serve-delta's four assumption sets through SetupWith on pooled
// sessions that carry each other's history. Every round must pick the
// lookup's witness with the lookup's counts, which holds only if every
// cell the session enumerates has exactly the table's members up to
// the cap. Each formula's rounds must cross at least one arena
// compaction, so the oracle covers the relocation of a live session's
// clauses too.
func TestSampleRoundMatchesLookup(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale oracle: a few seconds")
	}
	const rounds = 60
	load := func(name string) *cnf.Formula {
		inst, err := benchgen.Generate(name, benchgen.ScaleSmall, 0xbe7c)
		if err != nil {
			t.Fatal(err)
		}
		return inst.F
	}
	for _, name := range []string{"EnqueueSeqSK", "Karatsuba", "LLReverse", "TreeMax"} {
		f := load(name)
		su, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{Epsilon: 6})
		if err != nil {
			t.Fatal(err)
		}
		_, st := checkRoundsMatchLookup(t, name, su, su.NewSession(), f, nil, 1, rounds)
		checkCompacted(t, name, st)
	}

	// serve-delta: each set fixes two sampling bits of the base, given
	// as 1-based indices into its sampling set with a sign.
	f := load("Karatsuba")
	base, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	pool := &lender{su: base}
	for _, set := range [][2]int{{1, -2}, {-3, 4}, {5, 6}, {-7, -8}} {
		var assumps []cnf.Lit
		var dimacs []int
		for _, k := range set {
			l := cnf.MkLit(base.s[max(k, -k)-1], k < 0)
			assumps = append(assumps, l)
			dimacs = append(dimacs, l.DIMACS())
		}
		assumps = NormalizeAssumptions(assumps)
		conj, err := base.Conjoin(assumps)
		if err != nil {
			t.Fatal(err)
		}
		cond, err := base.SetupWith(pool, conj, assumps, nil, randx.New(PrepSeed(conj, nil)))
		if err != nil {
			t.Fatal(err)
		}
		sess := pool.Checkout(1)[0]
		sess.SetAssumptions(assumps)
		name := fmt.Sprint("Karatsuba", dimacs)
		_, st := checkRoundsMatchLookup(t, name, cond, sess, f, assumps, 2, rounds)
		checkCompacted(t, name, st)
		pool.Checkin([]*bsat.Session{sess}, []bool{false})
	}
}

// TestSessionCellsMatchStateless checks every cell of Algorithm 1's
// lines 13–20 at ε = 6, from i = q−3 to the first accepted cell, on one
// long-lived session over s953a_3_2 (benchgen small scale, seed 0xbe7c)
// hashed over all its variables, batch-fullsup's formula. Its hash set
// of 22 variables is too wide for testformula.Table, so each cell is
// compared with a stateless bsat.Enumerate of F ∧ h over the hash set:
// the count, Exhausted and BudgetExceeded, and the projected set when
// the cell is exhausted. The rounds must release hundreds of guards
// and cross at least one arena compaction, so a recycled guard that
// brought back an earlier cell's clauses, or a relocation that lost a
// live one, would show as a cell with a wrong member set.
func TestSessionCellsMatchStateless(t *testing.T) {
	if testing.Short() {
		t.Skip("workload-scale differential: about a second")
	}
	const rounds = 150
	inst, err := benchgen.Generate("s953a_3_2", benchgen.ScaleSmall, 0xbe7c)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.F
	all := make([]cnf.Var, f.NumVars)
	for i := range all {
		all[i] = cnf.Var(i + 1)
	}
	su, err := NewSetup(f, randx.New(PrepSeed(f, all)), Options{Epsilon: 6, SamplingSet: all})
	if err != nil {
		t.Fatal(err)
	}
	if su.easySet {
		t.Fatal("the easy case, which hashes nothing")
	}
	kp, sess, rng := su.kp, su.NewSession(), randx.New(1)
	var cells, exhausted int
	var compactions int64
	for round := range rounds {
		for i := su.q - 3; i <= su.q; i++ {
			h := hashfam.Draw(rng, su.h, max(i, 1))
			got := sess.Enumerate(kp.HiThresh+1, h)
			want := bsat.Enumerate(f, kp.HiThresh+1, bsat.Options{SamplingSet: su.h, Hash: h})
			cells++
			compactions += got.Stats[tally.Compactions]
			n := len(got.Witnesses)
			if n != len(want.Witnesses) || got.Exhausted != want.Exhausted || got.BudgetExceeded || want.BudgetExceeded {
				t.Fatalf("round %d cell i=%d: session %d witnesses (exhausted %v, budget %v), stateless %d (%v, %v)",
					round, i, n, got.Exhausted, got.BudgetExceeded, len(want.Witnesses), want.Exhausted, want.BudgetExceeded)
			}
			if got.Exhausted {
				exhausted++
				seen := map[string]bool{}
				for _, w := range want.Witnesses {
					seen[w.Project(su.h)] = true
				}
				for _, w := range got.Witnesses {
					if !w.Satisfies(f) || !seen[w.Project(su.h)] {
						t.Fatalf("round %d cell i=%d: session witness outside the stateless cell", round, i)
					}
					delete(seen, w.Project(su.h))
				}
			}
			if float64(n) >= kp.LoThresh && n <= kp.HiThresh {
				break
			}
		}
	}
	t.Logf("|H| = %d, q = %d: %d cells, %d exhausted, %d compactions", len(su.h), su.q, cells, exhausted, compactions)
	if len(su.h) <= testformula.MaxTableVars || cells < 2*rounds || compactions == 0 {
		t.Fatalf("|H| = %d, %d cells, %d compactions: the differential covers too little", len(su.h), cells, compactions)
	}
}

// checkCompacted fails the test when st, the merged stats of a
// formula's rounds, counts no arena compaction.
func checkCompacted(t *testing.T, name string, st Stats) {
	t.Helper()
	t.Logf("%s: %d compactions", name, st[tally.Compactions])
	if st[tally.Compactions] == 0 {
		t.Errorf("%s: the rounds crossed no arena compaction", name)
	}
}

// TestSampleRoundKnownMembersAlone: a cell whose known members alone
// reach hiThresh+1 is too big with no search, still counts one BSAT
// call and records one cell span, and the round still matches the
// lookup. Over seven free sampling variables (128 witnesses, q = 3)
// each round's first two cells have one row, and every row with a
// variable halves R, so the first cell finds 63 of its 64 members. A
// second row with no variable and right-hand side 0 (1 draw in 256)
// makes the second cell all of R, holding those 63 as known members.
func TestSampleRoundKnownMembersAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 rounds: a cell its known members decide comes once in about 256")
	}
	f := cnf.New(7)
	su, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if su.q != 3 {
		t.Fatalf("q = %d, want 3", su.q)
	}
	alone, _ := checkRoundsMatchLookup(t, "free7", su, su.NewSession(), f, nil, 3, 2000)
	if alone == 0 {
		t.Fatal("no cell decided by its known members alone")
	}
	t.Logf("%d cells decided by their known members alone", alone)
}
