package sat

import (
	"slices"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

// TestWatchInvariant verifies the two-watched-literal invariant after a
// burst of solving: every undeleted arena clause is watched on exactly
// its first two literals under both watch lists, and every inlined
// binary watcher has its mirror entry (the clause {a, b} appears in
// watches[¬a] with blocker b and in watches[¬b] with blocker a).
func TestWatchInvariant(t *testing.T) {
	rng := randx.New(71)
	f := randomCNF(rng, 30, 110, 3)
	s := New(f, Config{})
	s.Solve()
	count := map[CRef]int{}
	bins := map[[2]cnf.Lit]int{}
	for li := range s.watches {
		for _, w := range s.watches[li] {
			l := cnf.Lit(li)
			if w.cr == crefBin {
				bins[[2]cnf.Lit{l.Not(), w.blocker()}]++
				continue
			}
			if s.ca.deleted(w.cr) {
				continue
			}
			count[w.cr]++
			// The watch list index li corresponds to literal li; the
			// clause must be watched on lits 0 or 1, attached at the
			// negation.
			if s.ca.lit(w.cr, 0).Not() != l && s.ca.lit(w.cr, 1).Not() != l {
				t.Fatalf("clause watched at %v but watch lits are %v %v",
					l, s.ca.lit(w.cr, 0), s.ca.lit(w.cr, 1))
			}
		}
	}
	for _, cr := range s.clauses {
		if count[cr] != 2 {
			t.Fatalf("problem clause has %d watch entries, want 2", count[cr])
		}
	}
	for _, cr := range s.learnts {
		if !s.ca.deleted(cr) && count[cr] != 2 {
			t.Fatalf("learnt clause has %d watch entries, want 2", count[cr])
		}
	}
	for key, n := range bins {
		mirror := [2]cnf.Lit{key[1], key[0]}
		if bins[mirror] != n {
			t.Fatalf("binary watcher %v has %d entries but mirror has %d",
				key, n, bins[mirror])
		}
	}
}

// TestXOROccInvariant verifies the XOR watch invariants (see
// checkXORWatches) on a small random CNF+XOR formula after a full Solve,
// and on wide-row formulas, with Gauss–Jordan off and on, after each
// conflict-free propagate of a run of random core decisions. The wide
// rows span several words and some windows start past word 0.
func TestXOROccInvariant(t *testing.T) {
	rng := randx.New(72)
	f := randomXORCNF(rng, 12, 10, 3, 6)
	s := New(f, Config{})
	s.Solve()
	checkXORWatches(t, s)

	rng = randx.New(0x0cc)
	for iter := 0; iter < 120; iter++ {
		f, core, _ := wideRowFormula(rng, wideRowShares[iter%len(wideRowShares)])
		for _, gauss := range []bool{false, true} {
			s := New(f, Config{GaussJordan: gauss})
			checkXORWatches(t, s)
			for _, i := range rng.Perm(len(core)) {
				if s.assigns[core[i]] != lUndef {
					continue
				}
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(cnf.MkLit(core[i], rng.Bool()), reason{})
				if !s.propagate().none() {
					break
				}
				checkXORWatches(t, s)
			}
			s.cancelUntil(0)
		}
	}
}

// checkXORWatches checks, at a propagation fixpoint, that every XOR row
// watches two distinct columns of its own and is in exactly the
// occurrence lists of their two variables, and that a row with an
// assigned watch has every column assigned.
func checkXORWatches(t *testing.T, s *Solver) {
	t.Helper()
	occ := map[int32]int{}
	for v := 1; v <= s.numVars; v++ {
		for _, xi := range s.occXor[v] {
			w := s.xors[xi].w
			if s.xvarOf[w[0]] != cnf.Var(v) && s.xvarOf[w[1]] != cnf.Var(v) {
				t.Fatalf("xor %d in occ list of %d but watches %d/%d", xi, v, s.xvarOf[w[0]], s.xvarOf[w[1]])
			}
			occ[xi]++
		}
	}
	for xi := range s.xors {
		x := &s.xors[xi]
		if x.w[0] == x.w[1] {
			t.Fatalf("xor %d watches column %d twice", xi, x.w[0])
		}
		for _, c := range x.w {
			if w := c>>6 - int(x.off); w < 0 || w >= len(x.bits) || x.bits[w]&(1<<uint(c&63)) == 0 {
				t.Fatalf("xor %d watches column %d, which is not in the row", xi, c)
			}
		}
		if got := occ[int32(xi)]; got != 2 {
			t.Fatalf("xor %d has %d occurrence entries, want 2", xi, got)
		}
		if s.assigns[s.xvarOf[x.w[0]]] == lUndef && s.assigns[s.xvarOf[x.w[1]]] == lUndef {
			continue
		}
		for w, b := range x.bits {
			if b&^s.xAssigned[int(x.off)+w] != 0 {
				t.Fatalf("xor %d has an assigned watch but unassigned columns", xi)
			}
		}
	}
}

// TestReduceDBKeepsSolvability: aggressive clause deletion must never
// change satisfiability (learned clauses are logically implied).
func TestReduceDBKeepsSolvability(t *testing.T) {
	rng := randx.New(73)
	for iter := 0; iter < 20; iter++ {
		f := randomCNF(rng, 40, 170, 3)
		s := New(f, Config{Seed: uint64(iter)})
		s.maxLearnts = 10 // force frequent reductions
		st1 := s.Solve()
		s2 := New(f, Config{Seed: uint64(iter)})
		st2 := s2.Solve()
		if st1 != st2 {
			t.Fatalf("iter %d: reduceDB changed verdict %v vs %v", iter, st1, st2)
		}
	}
}

// TestPhaseSavingRestoresModel: solving the same formula twice in a row
// must be cheap and SAT on the second call (phase saving keeps the old
// model close).
func TestPhaseSavingRestoresModel(t *testing.T) {
	rng := randx.New(74)
	f := randomCNF(rng, 50, 150, 3)
	s := New(f, Config{})
	if s.Solve() != Sat {
		t.Skip("instance unsat")
	}
	before := s.Stats()[tally.Decisions]
	if s.Solve() != Sat {
		t.Fatal("second solve failed")
	}
	delta := s.Stats()[tally.Decisions] - before
	if delta > 70 {
		t.Fatalf("second solve took %d decisions; phase saving broken?", delta)
	}
}

// TestSatisfyingDescentKeepsHeap pins pickBranchLit's early exit. On a
// Tseitin-style formula whose gate inputs are PriorityVars, a
// satisfying descent decides the inputs and propagation assigns every
// gate; the descent must then stop without popping the gates, so they
// are all still in the order heap when search returns Sat. The
// descent under test follows a warm-up Solve.
func TestSatisfyingDescentKeepsHeap(t *testing.T) {
	// g_i ↔ x_i ∧ x_{i+1} over inputs x1..x4; the gates are 5..7.
	f := cnf.New(7)
	for i := 1; i <= 3; i++ {
		g := i + 4
		f.AddClause(-g, i)
		f.AddClause(-g, i+1)
		f.AddClause(g, -i, -(i + 1))
	}
	s := New(f, Config{PriorityVars: []cnf.Var{1, 2, 3, 4}})
	if s.Solve() != Sat {
		t.Fatal("warm-up Solve: want SAT")
	}
	if st := s.search(1<<20, -1, -1, nil); st != Sat {
		t.Fatalf("search = %v, want SAT", st)
	}
	for g := cnf.Var(5); g <= 7; g++ {
		if s.assigns[g] == lUndef || s.reasons[g].isNone() {
			t.Fatalf("gate %d was not assigned by propagation", g)
		}
		if !s.order.contains(g) {
			t.Fatalf("propagated gate %d was popped from the order heap", g)
		}
	}
	s.cancelUntil(0)
}

// TestPriorityVarsStartInPriorityHeap checks that New puts every
// priority variable in priOrder and none in order, so a fresh solver's
// first descent already branches on Config.PriorityVars first. The
// daemon builds a fresh session per request, so that descent is a
// real share of its search.
func TestPriorityVarsStartInPriorityHeap(t *testing.T) {
	f := cnf.New(8)
	f.AddClause(1, -2, 3)
	f.AddClause(-5, 8)
	pri := []cnf.Var{2, 5, 7}
	s := New(f, Config{PriorityVars: pri})
	got := slices.Sorted(slices.Values(s.priOrder.heap))
	if !slices.Equal(got, pri) {
		t.Fatalf("priOrder holds %v, want the priority variables %v", got, pri)
	}
	for v := cnf.Var(1); v <= 8; v++ {
		if isPri := slices.Contains(pri, v); s.order.contains(v) == isPri {
			t.Fatalf("x%d: in order = %v, priority = %v", v, s.order.contains(v), isPri)
		}
	}
}

func TestGrowToIdempotent(t *testing.T) {
	f := cnf.New(3)
	s := New(f, Config{})
	s.growTo(3)
	s.growTo(10)
	if s.NumVars() != 10 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if !s.AddClause(cnf.Clause{cnf.MkLit(10, false)}) {
		t.Fatal("AddClause after grow failed")
	}
	if s.Solve() != Sat {
		t.Fatal("solve failed")
	}
}

func TestXorFalseClauseShape(t *testing.T) {
	f := cnf.New(3)
	f.AddXOR([]cnf.Var{1, 2, 3}, true)
	s := New(f, Config{})
	// Assign 1=T, 2=F: xor implies 3=F... check reason clause shape by
	// driving propagation through a solve with assumptions.
	if s.Solve(cnf.MkLit(1, false), cnf.MkLit(2, true)) != Sat {
		t.Fatal("solve failed")
	}
	m := s.Model()
	if m.Get(3) != false {
		t.Fatalf("xor propagation wrong: model %v", m)
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String broken")
	}
}
