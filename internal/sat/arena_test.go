package sat

import (
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

// enumerateModels collects every model of the solver by blocking-clause
// enumeration, projected to vars 1..n, optionally forcing an arena
// compaction between Solve calls.
func enumerateModels(t *testing.T, s *Solver, n int, compactEvery int) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	vars := make([]cnf.Var, n)
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
	}
	for calls := 0; ; calls++ {
		if compactEvery > 0 && calls%compactEvery == 0 {
			s.CompactArena()
		}
		st := s.Solve()
		if st != Sat {
			if st != Unsat {
				t.Fatal("enumeration hit budget")
			}
			return out
		}
		m := s.Model()
		key := m.Project(vars)
		if out[key] {
			t.Fatal("duplicate model enumerated")
		}
		out[key] = true
		block := make(cnf.Clause, 0, n)
		for _, v := range vars {
			block = append(block, cnf.MkLit(v, m.Get(v)))
		}
		if !s.AddClause(block) {
			return out
		}
	}
}

// TestArenaEnumerationAcrossCompaction: forced compactions between
// Solve calls must not change the enumerated model set — CRef
// relocation has to rewrite every holder (watches, reasons, indices)
// consistently. Differential against the brute-force oracle.
func TestArenaEnumerationAcrossCompaction(t *testing.T) {
	rng := randx.New(0xa43a)
	for iter := 0; iter < 150; iter++ {
		n := 3 + rng.Intn(8)
		f := randomXORCNF(rng, n, 1+rng.Intn(3*n), 3, rng.Intn(3))
		want := map[string]bool{}
		vars := make([]cnf.Var, n)
		for i := range vars {
			vars[i] = cnf.Var(i + 1)
		}
		for _, m := range BruteForceModels(f) {
			want[m.Project(vars)] = true
		}
		got := enumerateModels(t, New(f, Config{Seed: uint64(iter)}), n, 1)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d models with compaction, brute force %d\n%s",
				iter, len(got), len(want), cnf.DIMACSString(f))
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("iter %d: spurious model", iter)
			}
		}
	}
}

// TestArenaRemovableCompactionDifferential drives a whole incremental
// lifetime — install removable clauses/XORs, solve under assumptions,
// release a random subset, force a compaction — and
// checks every verdict and model against a fresh solver on the
// equivalent formula. Level-0 assignments must be identical before and
// after each compaction (relocation must not touch the trail's
// semantics).
func TestArenaRemovableCompactionDifferential(t *testing.T) {
	rng := randx.New(0xc04fac7)
	for iter := 0; iter < 120; iter++ {
		n := 4 + rng.Intn(6)
		f := randomCNF(rng, n, rng.Intn(3*n), 3)
		inc := New(f, Config{Seed: uint64(iter)})
		for epoch := 0; epoch < 3; epoch++ {
			g := f.Clone()
			var sels []*Selector
			var acts []cnf.Lit
			for k, kk := 0, 1+rng.Intn(4); k < kk; k++ {
				if rng.Bool() {
					c := make(cnf.Clause, 0, 2)
					for j := 0; j < 1+rng.Intn(2); j++ {
						c = append(c, cnf.MkLit(cnf.Var(rng.Intn(n)+1), rng.Bool()))
					}
					sel := inc.AddClauseRemovable(c)
					sels = append(sels, sel)
					acts = append(acts, sel.Lit())
					g.AddClauseLits(c)
				} else {
					var vs []cnf.Var
					for v := 1; v <= n; v++ {
						if rng.Bool() {
							vs = append(vs, cnf.Var(v))
						}
					}
					rhs := rng.Bool()
					sel := inc.AddXORRemovable(vs, rhs)
					sels = append(sels, sel)
					acts = append(acts, sel.Lit())
					g.AddXOR(vs, rhs)
				}
			}
			want := New(g, Config{Seed: uint64(iter)}).Solve()
			got := inc.Solve(acts...)
			if got != want {
				t.Fatalf("iter %d epoch %d: incremental %v, fresh %v\n%s",
					iter, epoch, got, want, cnf.DIMACSString(g))
			}
			if got == Sat {
				if m := inc.Model()[:n+1]; !m.Satisfies(g) {
					t.Fatalf("iter %d epoch %d: model violates constraints", iter, epoch)
				}
			}
			for _, sel := range sels {
				if rng.Bool() {
					inc.Release(sel)
				}
			}
			l0Before := levelZeroValues(inc)
			inc.CompactArena()
			if l0After := levelZeroValues(inc); l0Before != l0After {
				t.Fatalf("iter %d epoch %d: level-0 assignment changed across compaction", iter, epoch)
			}
			if inc.Solve() == Unknown {
				t.Fatalf("iter %d epoch %d: post-compaction solve hit budget", iter, epoch)
			}
		}
	}
}

// levelZeroValues renders the level-0 portion of the trail as a
// canonical string (variable/value pairs in trail order).
func levelZeroValues(s *Solver) string {
	end := len(s.trail)
	if len(s.trailLim) > 0 {
		end = s.trailLim[0]
	}
	buf := make([]byte, 0, 2*end)
	for _, l := range s.trail[:end] {
		buf = append(buf, byte(l.Var()), byte(l.Var()>>8))
		if l.Neg() {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
		}
	}
	return string(buf)
}

// TestGlueClauseSurvivesReduceDB: reduceDB must protect glue clauses
// (LBD ≤ 2) even when they fall in the worst half by activity —
// previously only binaries were exempt.
func TestGlueClauseSurvivesReduceDB(t *testing.T) {
	f := cnf.New(40)
	s := New(f, Config{})
	mkLits := func(base int) []cnf.Lit {
		return []cnf.Lit{
			cnf.MkLit(cnf.Var(base%40+1), false),
			cnf.MkLit(cnf.Var((base+1)%40+1), true),
			cnf.MkLit(cnf.Var((base+2)%40+1), false),
		}
	}
	var glue []CRef
	for i := 0; i < 20; i++ {
		lbd := 8
		if i < 10 {
			lbd = 2 // glue, with the same (zero) activity as everything else
		}
		cr := s.ca.alloc(mkLits(i), true, lbd, 0)
		s.learnts = append(s.learnts, cr)
		s.attach(cr)
		if lbd <= 2 {
			glue = append(glue, cr)
		}
	}
	s.reduceDB()
	if got := s.Stats()[tally.Removed]; got != 10 {
		t.Fatalf("reduceDB removed %d clauses, want the 10 high-LBD ones", got)
	}
	for _, cr := range glue {
		if s.ca.deleted(cr) {
			t.Fatal("glue clause (LBD 2) was deleted by reduceDB")
		}
	}
	kept := map[CRef]bool{}
	for _, cr := range s.learnts {
		kept[cr] = true
	}
	for _, cr := range glue {
		if !kept[cr] {
			t.Fatal("glue clause missing from the learnt index after reduceDB")
		}
	}
}

// TestLockedReasonSurvivesReduceDB: a learnt clause acting as the
// reason of a trail assignment must survive reduction regardless of
// its LBD (locked detection now runs through the trail marks).
func TestLockedReasonSurvivesReduceDB(t *testing.T) {
	f := cnf.New(20)
	s := New(f, Config{})
	// Learnt (1 ∨ 2 ∨ 3): make it the reason for 1 by falsifying 2,3
	// at a decision level.
	locked := s.ca.alloc([]cnf.Lit{cnf.MkLit(1, false), cnf.MkLit(2, false), cnf.MkLit(3, false)},
		true, 9, 0)
	s.learnts = append(s.learnts, locked)
	s.attach(locked)
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(cnf.MkLit(2, true), reason{})
	s.uncheckedEnqueue(cnf.MkLit(3, true), reason{})
	if !s.propagate().none() {
		t.Fatal("unexpected conflict")
	}
	if s.valueVar(1) != lTrue {
		t.Fatal("clause did not propagate")
	}
	// Pile on deletable clauses so `locked` lands in the worst half.
	for i := 0; i < 10; i++ {
		cr := s.ca.alloc([]cnf.Lit{
			cnf.MkLit(cnf.Var(i+4), false),
			cnf.MkLit(cnf.Var(i+5), false),
			cnf.MkLit(cnf.Var(i+6), false),
		}, true, 3, float64(i+1))
		s.learnts = append(s.learnts, cr)
		s.attach(cr)
	}
	s.reduceDB()
	if s.ca.deleted(locked) {
		t.Fatal("locked reason clause was deleted")
	}
	if r := s.reasons[1]; r.tag != reasonClause || r.ref != locked {
		t.Fatalf("reason of var 1 corrupted: %+v", r)
	}
	s.cancelUntil(0)
}

// TestArenaWasteReclaimed: Releases compact the arena once their waste
// crosses the threshold, so after the last one the arena footprint has
// shrunk back and the waste counter is reset.
func TestArenaWasteReclaimed(t *testing.T) {
	f := cnf.New(10)
	f.AddClause(1, 2, 3)
	s := New(f, Config{})
	var sels []*Selector
	for i := 0; i < 100; i++ {
		sels = append(sels, s.AddClauseRemovable(cnf.Clause{
			cnf.MkLit(1, false), cnf.MkLit(2, false), cnf.MkLit(3, false),
		}))
	}
	grown := len(s.ca.store)
	for _, sel := range sels {
		s.Release(sel)
	}
	if s.stats[tally.Compactions] == 0 {
		t.Fatal("Release did not compact despite overwhelming waste")
	}
	if s.ca.wasted != 0 {
		t.Fatalf("wasted = %d after compaction", s.ca.wasted)
	}
	if len(s.ca.store) >= grown/2 {
		t.Fatalf("arena still %d words after reclaiming 100 clauses (was %d)",
			len(s.ca.store), grown)
	}
	if s.Solve() != Sat {
		t.Fatal("base formula unsat after GC")
	}
}

// TestPropagateLearnSteadyStateAllocs: once warmed up, the budgeted
// conflict loop (propagate, analyze, recordLearnt, reduceDB) must run
// allocation-free apart from amortized slice growth.
func TestPropagateLearnSteadyStateAllocs(t *testing.T) {
	// Pigeonhole PHP(9,8): UNSAT, and far beyond the conflict budget of
	// any single call — every Solve burns its whole budget learning.
	const pigeons, holes = 9, 8
	f := cnf.New(pigeons * holes)
	pv := func(p, h int) cnf.Var { return cnf.Var(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		c := make(cnf.Clause, 0, holes)
		for h := 0; h < holes; h++ {
			c = append(c, cnf.MkLit(pv(p, h), false))
		}
		f.AddClauseLits(c)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClauseLits(cnf.Clause{cnf.MkLit(pv(p1, h), true), cnf.MkLit(pv(p2, h), true)})
			}
		}
	}
	s := New(f, Config{MaxConflicts: 50, Seed: 7})
	for i := 0; i < 50; i++ {
		if s.Solve() != Unknown {
			t.Fatal("PHP solved inside the warm-up budget")
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if s.Solve() == Sat {
			t.Fatal("unexpected SAT")
		}
	})
	// Amortized growth of the arena and watch lists may trigger the
	// occasional allocation; the per-clause allocations of the pointer
	// representation (2 per learnt, ~100 per call here) must be gone.
	if avg > 3 {
		t.Fatalf("steady-state Solve allocates %.1f times per call", avg)
	}
}

// TestCompactionChargesWatchTable: a compaction walks the arena and
// every watch list, so the waste threshold weighs the waste against
// both. The same waste, three released five-literal clauses, compacts
// on a solver with a small watch table. On a formula with a thousand
// more variables, whose watch table is that much larger, it does not:
// Release sweeps the dirty watch lists instead.
func TestCompactionChargesWatchTable(t *testing.T) {
	for _, extra := range []int{0, 1000} {
		f := cnf.New(10 + extra)
		f.AddClause(1, 2, 3)
		s := New(f, Config{})
		for i := 0; i < 3; i++ {
			s.Release(s.AddClauseRemovable(cnf.Clause{
				cnf.MkLit(1, false), cnf.MkLit(2, false), cnf.MkLit(3, false), cnf.MkLit(4, false), cnf.MkLit(5, false),
			}))
		}
		if compacted := s.stats[tally.Compactions] > 0; compacted != (extra == 0) {
			t.Fatalf("%d extra variables, %d wasted words, %d arena words, %d watch lists: compacted = %v",
				extra, s.ca.wasted, len(s.ca.store), len(s.watches), compacted)
		}
		for li, ws := range s.watches {
			for _, wt := range ws {
				if wt.cr != crefBin && s.ca.deleted(wt.cr) {
					t.Fatalf("%d extra variables: watch list %d keeps a deleted clause", extra, li)
				}
			}
		}
		if s.Solve() != Sat {
			t.Fatalf("%d extra variables: base formula unsat after GC", extra)
		}
	}
}
