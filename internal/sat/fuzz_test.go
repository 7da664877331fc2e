package sat

import (
	"encoding/binary"
	"testing"

	"unigen/internal/cnf"
)

// FuzzSolver is the solver's brute-force fuzz oracle. The input bytes
// decode into a CNF+XOR formula over at most 10 variables (see
// fuzzFormula). One solver, recording a proof, enumerates the full
// model set with blocking clauses, and both the first verdict and the
// model set must match BruteForceModels. The enumeration ends in UNSAT
// (of the formula when it has no models, else of the formula plus its
// blocking clauses, which the trace carries as axioms), and
// CheckRUPProof must accept the trace as a refutation: it derives the
// empty clause. RecordProof only logs; it does not change the search.
func FuzzSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fm := fuzzFormula(data)
		if fm == nil {
			return
		}
		all := varsUpTo(fm.NumVars)
		want := map[string]bool{}
		for _, m := range BruteForceModels(fm) {
			want[m.Project(all)] = true
		}
		s := New(fm, Config{RecordProof: true})
		got := map[string]bool{}
		for {
			st := s.Solve()
			if st == Unknown {
				t.Fatalf("Solve returned %v without a budget", st)
			}
			if len(got) == 0 && (st == Sat) != (len(want) > 0) {
				t.Fatalf("verdict %v, brute force finds %d models\n%s", st, len(want), cnf.DIMACSString(fm))
			}
			if st == Unsat {
				break
			}
			m := s.Model()
			key := m.Project(all)
			if !want[key] || got[key] {
				t.Fatalf("model %v is a non-model or a repeat\n%s", m, cnf.DIMACSString(fm))
			}
			got[key] = true
			block := make(cnf.Clause, len(all))
			for i, v := range all {
				block[i] = cnf.MkLit(v, m.Get(v))
			}
			s.AddClause(block)
		}
		if len(got) != len(want) {
			t.Fatalf("enumerated %d models, brute force %d\n%s", len(got), len(want), cnf.DIMACSString(fm))
		}
		if err := CheckRUPProof(fm, s.Proof()); err != nil {
			t.Fatalf("%v\n%s", err, cnf.DIMACSString(fm))
		}
	})
}

// fuzzFormula decodes fuzz input into a formula: byte 0 picks the
// variable count 1..10, then each 4-byte group is one constraint (at
// most 32; see addFuzzConstraint). Returns nil on empty input.
func fuzzFormula(data []byte) *cnf.Formula {
	if len(data) == 0 {
		return nil
	}
	fm := cnf.New(1 + int(data[0])%10)
	for g := data[1:]; len(g) >= 4 && len(fm.Clauses)+len(fm.XORs) < 32; g = g[4:] {
		addFuzzConstraint(fm, g)
	}
	return fm
}

// addFuzzConstraint decodes the 4-byte group g into one constraint of
// fm. The group's first little-endian u16 selects the constraint's
// variables (bit i is variable i+1); its bit 15 makes the constraint an
// XOR whose RHS is bit 14. For a clause, bit i of the second u16 negates
// variable i+1. Variables never repeat within a constraint, so the RUP
// checker sees no duplicate literals. An empty selection is an empty
// clause or a constant XOR.
func addFuzzConstraint(fm *cnf.Formula, g []byte) {
	sel := binary.LittleEndian.Uint16(g)
	neg := binary.LittleEndian.Uint16(g[2:])
	vars := fuzzVars(sel, varsUpTo(fm.NumVars))
	if sel&0x8000 != 0 {
		fm.AddXOR(vars, sel&0x4000 != 0)
		return
	}
	fm.AddClauseLits(fuzzLits(vars, neg))
}

// varsUpTo returns the variables 1..n.
func varsUpTo(n int) []cnf.Var {
	out := make([]cnf.Var, n)
	for i := range out {
		out[i] = cnf.Var(i + 1)
	}
	return out
}

// fuzzVars returns vars[i] for every bit i set in mask.
func fuzzVars(mask uint16, vars []cnf.Var) []cnf.Var {
	var out []cnf.Var
	for i, v := range vars {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// fuzzLits makes a literal of each v in vars, negated when bit v-1 of
// neg is set.
func fuzzLits(vars []cnf.Var, neg uint16) cnf.Clause {
	var c cnf.Clause
	for _, v := range vars {
		c = append(c, cnf.MkLit(v, neg&(1<<(v-1)) != 0))
	}
	return c
}

// fuzzSel is a selector of a FuzzSession run with the constraints it
// guards, kept in the form the brute-force oracle conjoins.
type fuzzSel struct {
	sel     *Selector
	clauses []cnf.Clause    // clause selector
	xor     []cnf.XORClause // XOR selector: its rows
}

// FuzzSession is the oracle for incremental solvers as bsat.Session
// drives them. Byte 0 of the input picks the variable count n = 1..8
// (bits 0-2) and the number of base constraints (bits 4-7), which
// follow byte 1 in addFuzzConstraint's encoding; bit 3 is unused, and
// stays in the layout so the checked-in corpus keeps its meaning. Byte
// 1 selects the sampling set S (bit i is variable i+1; none means all),
// which is also the solver's PriorityVars, as in bsat.NewSession.
// The remaining bytes are operations on one packed-engine solver, each
// an opcode byte mod 6 and its argument bytes:
//
//	0 mask arg       ⊕{S[i] : bit i of mask} = arg&1 under a new live selector,
//	                 or with bit 7 of arg set under the next cell's selector
//	1 pick mask neg  AddClauseToSelector on a live clause selector or a new one
//	2 mask neg       set the standing assumption literals (mask 0 clears them)
//	3 pick           Release a live selector
//	4 b              CompactArena when b is odd; an even b does nothing, and
//	                 stays in the layout so the checked-in corpus keeps its meaning
//	5 lo hi          enumerate the cell under the live selectors a 16-bit mask picks
//
// Opcode 5 enumerates the cell as bsat.Session does, in one Enumerate
// search, and is checked against BruteForceModels of the base formula ∧
// the active constraints ∧ the standing assumptions: every model must
// satisfy that formula, the projections on S must not repeat and must
// make up the oracle's set, and the search must end Unsat at decision
// level 0. The cell blocks its models under the selector that opcode 0
// put its rows under, as one selector guards a session call's rows and
// blocking clauses, or under a fresh one when no row is pending; either
// way that selector's literal is the last assumption, and the selector
// is released after the cell. After every operation
// the level-0 trail may hold only base consequences, the free-variable
// counter must equal a recount, and the solver may hold no more
// selector variables than the run ever held live selectors at once:
// Release recycles a guard at once. One solver serves the whole run:
// no operation rebuilds it, so the level-0 check sees every release
// the run has made, and every recycled guard.
func FuzzSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0]&7)
		base := cnf.New(n)
		ops := data[2:]
		for k := data[0] >> 4; k > 0 && len(ops) >= 4; k-- {
			addFuzzConstraint(base, ops)
			ops = ops[4:]
		}
		all := varsUpTo(n)
		S := fuzzVars(uint16(data[1]), all)
		if len(S) == 0 {
			S = all
		}
		cfg := Config{PriorityVars: S} // as bsat.NewSession does
		baseModels := BruteForceModels(base)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}

		s := New(base, cfg)
		s.SetModelBound(n)
		cols := s.XORColumns(S)
		var (
			live       []fuzzSel
			cell       fuzzSel // the next cell's selector, once a row is under it
			assumps    []cnf.Lit
			held, peak int // live selectors, and their most at once
		)
		newSel := func() *Selector {
			held++
			peak = max(peak, held)
			return s.NewSelector()
		}
		for step := 0; len(ops) > 0 && step < 64; step++ {
			switch op := next() % 6; op {
			case 0:
				mask, arg := next(), next()
				fs := &cell
				if arg&0x80 == 0 {
					if len(live) == 16 {
						break
					}
					live = append(live, fuzzSel{})
					fs = &live[len(live)-1]
				}
				if fs.sel == nil {
					fs.sel = newSel()
				}
				x := cnf.XORClause{Vars: fuzzVars(uint16(mask), S), RHS: arg&1 == 1}
				s.AddPackedXORToSelector(fs.sel, []uint64{uint64(mask) & (1<<len(S) - 1)}, x.RHS, cols)
				fs.xor = append(fs.xor, x)
			case 1:
				pick, c := next(), fuzzLits(fuzzVars(uint16(next()), all), uint16(next()))
				var idx []int
				for i, fs := range live {
					if fs.xor == nil {
						idx = append(idx, i)
					}
				}
				i := -1
				if k := int(pick) % (len(idx) + 1); k < len(idx) {
					i = idx[k]
				} else if len(live) < 16 {
					live = append(live, fuzzSel{sel: newSel()})
					i = len(live) - 1
				}
				if i >= 0 {
					s.AddClauseToSelector(live[i].sel, c)
					live[i].clauses = append(live[i].clauses, c)
				}
			case 2:
				assumps = fuzzLits(fuzzVars(uint16(next()), all), uint16(next()))
			case 3:
				pick := next()
				if len(live) > 0 {
					i := int(pick) % len(live)
					s.Release(live[i].sel)
					live = append(live[:i], live[i+1:]...)
					held--
				}
			case 4:
				if next()&1 == 1 {
					s.CompactArena()
				}
			case 5:
				mask := uint16(next()) | uint16(next())<<8
				if cell.sel == nil {
					cell.sel = newSel()
				}
				checkFuzzCell(t, s, base, live, mask, assumps, S, cell)
				cell = fuzzSel{}
				held--
			}
			checkFuzzLevel0(t, s, baseModels, n)
			if k := s.numVars - n; k > peak {
				t.Fatalf("%d selector variables, at most %d selectors live at once", k, peak)
			}
		}
	})
}

// checkFuzzCell enumerates the cell under the live selectors mask picks,
// the standing assumptions and blk, whose rows the cell is under too,
// as bsat.Session does: one Enumerate search that blocks under blk, and
// releases blk. It checks the verdict, every model and the projected
// model set against brute force, and that Enumerate returns Unsat at
// decision level 0.
func checkFuzzCell(t *testing.T, s *Solver, base *cnf.Formula, live []fuzzSel, mask uint16, assumps []cnf.Lit, S []cnf.Var, blk fuzzSel) {
	t.Helper()
	conj := base.Clone()
	conj.XORs = append(conj.XORs, blk.xor...)
	var acts []cnf.Lit
	for i, fs := range live {
		if mask&(1<<i) == 0 {
			continue
		}
		acts = append(acts, fs.sel.Lit())
		conj.Clauses = append(conj.Clauses, fs.clauses...)
		conj.XORs = append(conj.XORs, fs.xor...)
	}
	acts = append(acts, assumps...)
	for _, l := range assumps {
		conj.Clauses = append(conj.Clauses, cnf.Clause{l})
	}
	acts = append(acts, blk.sel.Lit())
	want := map[string]bool{}
	for _, m := range BruteForceModels(conj) {
		want[m.Project(S)] = true
	}
	got := map[string]bool{}
	st := s.Enumerate(blk.sel, acts, func() bool {
		m := s.Model()
		key := m.Project(S)
		if !m.Satisfies(conj) || got[key] {
			t.Fatalf("model %v is a non-model or a repeat\n%s", m, cnf.DIMACSString(conj))
		}
		got[key] = true
		return true
	})
	if st != Unsat || s.decisionLevel() != 0 {
		t.Fatalf("Enumerate returned %v at decision level %d without a budget", st, s.decisionLevel())
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d projected models, brute force %d\n%s", len(got), len(want), cnf.DIMACSString(conj))
	}
	s.Release(blk.sel)
}

// checkFuzzLevel0 checks the between-calls state of a session solver:
// decision level 0, every level-0 assignment of a formula variable
// implied by the base formula, and nFree equal to a recount of the
// unassigned non-selector variables.
func checkFuzzLevel0(t *testing.T, s *Solver, baseModels []cnf.Assignment, n int) {
	t.Helper()
	if s.decisionLevel() != 0 {
		t.Fatalf("left at decision level %d", s.decisionLevel())
	}
	for v := 1; v <= n; v++ {
		if s.assigns[v] == lUndef {
			continue
		}
		for _, m := range baseModels {
			if m[v] != (s.assigns[v] == lTrue) {
				t.Fatalf("level-0 value of x%d contradicts base model %v", v, m)
			}
		}
	}
	free := 0
	for v := 1; v <= s.numVars; v++ {
		if !s.isSelector[v] && s.assigns[v] == lUndef {
			free++
		}
	}
	if free != s.nFree {
		t.Fatalf("nFree = %d, recount = %d", s.nFree, free)
	}
}
