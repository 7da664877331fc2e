package sat

import (
	"slices"
	"sync/atomic"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

// gatedPigeonhole is S = x1..x4 over a pigeonhole formula, 4 pigeons in
// 3 holes on variables 5..16, that x4 switches on: every pigeonhole
// clause carries ¬x4. A cell's models with x4 false come without a
// conflict under priority branching on S. Showing that x4 cannot be
// true takes a refutation of the pigeonhole, so a one-conflict budget
// always stops the cell there.
func gatedPigeonhole() (*cnf.Formula, []cnf.Var) {
	f := cnf.New(16)
	p := func(i, j int) int { return 5 + 3*i + j }
	for i := 0; i < 4; i++ {
		f.AddClause(p(i, 0), p(i, 1), p(i, 2), -4)
		for k := i + 1; k < 4; k++ {
			for j := 0; j < 3; j++ {
				f.AddClause(-p(i, j), -p(k, j), -4)
			}
		}
	}
	return f, []cnf.Var{1, 2, 3, 4}
}

// TestEnumerateStopsMidCell stops a cell after some models, once with
// the interrupt flag and once with a conflict budget. Enumerate must
// return Unknown at decision level 0 with the models found so far, and
// the solver must then serve the next cell as bsat.Session would:
// Release the stopped cell's blocking selector, CollectGarbage, install
// a hash row with AddPackedXORRemovable, and enumerate the new cell to
// its brute-force model set.
func TestEnumerateStopsMidCell(t *testing.T) {
	for _, mode := range []string{"interrupt", "budget"} {
		t.Run(mode, func(t *testing.T) {
			f, S := gatedPigeonhole()
			var intr atomic.Bool
			s := New(f, Config{PriorityVars: S, Interrupt: &intr})
			s.SetModelBound(f.NumVars)
			cols := s.XORColumns(S)
			if mode == "budget" {
				s.SetBudgets(1, 0)
			}
			blk := s.NewClauseSelector()
			k := 0
			st := s.Enumerate(blk, []cnf.Lit{blk.Lit()}, func() bool {
				if s.ModelValue(4) {
					t.Fatalf("model %d has x4 true", k+1)
				}
				k++
				if mode == "interrupt" && k == 2 {
					intr.Store(true)
				}
				return true
			})
			if st != Unknown || s.decisionLevel() != 0 {
				t.Fatalf("Enumerate returned %v at decision level %d, want Unknown at 0", st, s.decisionLevel())
			}
			if k < 1 || k > 8 || mode == "interrupt" && k != 2 {
				t.Fatalf("stopped after %d models", k)
			}
			intr.Store(false)
			s.SetBudgets(0, 0)
			s.Release(blk)
			s.CollectGarbage()

			// Next cell: x1 ⊕ x2 = 1.
			row := s.AddPackedXORRemovable([]uint64{0b0011}, true, cols)
			blk = s.NewClauseSelector()
			got := map[string]bool{}
			st = s.Enumerate(blk, []cnf.Lit{row.Lit(), blk.Lit()}, func() bool {
				key := s.Model().Project(S)
				if got[key] {
					t.Fatalf("model %s repeated", key)
				}
				got[key] = true
				return true
			})
			if st != Unsat || s.decisionLevel() != 0 {
				t.Fatalf("next cell: Enumerate returned %v at decision level %d, want Unsat at 0", st, s.decisionLevel())
			}
			conj := f.Clone()
			conj.AddXOR([]cnf.Var{1, 2}, true)
			var want []string
			for _, m := range BruteForceModels(conj) {
				if key := m.Project(S); !slices.Contains(want, key) {
					want = append(want, key)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("next cell has %d models, brute force %d", len(got), len(want))
			}
			for _, key := range want {
				if !got[key] {
					t.Fatalf("next cell misses brute-force model %s", key)
				}
			}
		})
	}
}

// TestEnumerateDecisionBlocking enumerates two cells per solver on
// random CNF+XOR formulas, as a session does: each cell under a
// removable XOR row over vars, the solver's priority variables, and a
// fresh blocking selector, the first released and collected before the
// second. Each cell's projections on vars must be the brute-force set,
// with no repeat. Every blocking clause asserts, so no blocking clause
// is analysed and a cell learns exactly one clause per conflict. When
// vars is every variable, every decision lies in vars. When vars is a
// subset, the search can leave a variable outside it to a decision, and
// the blocking clause stops short of that decision; some models must.
func TestEnumerateDecisionBlocking(t *testing.T) {
	for _, subset := range []bool{false, true} {
		name := "all-vars"
		if subset {
			name = "priority-subset"
		}
		t.Run(name, func(t *testing.T) {
			rng := randx.New(0xdec151)
			cut, conflicts := 0, int64(0)
			for iter := 0; iter < 300; iter++ {
				n := 3 + rng.Intn(6)
				f := randomXORCNF(rng, n, rng.Intn(2*n), 3, rng.Intn(3))
				vars := varsUpTo(n)
				if subset {
					vars = vars[:1+rng.Intn(n-1)]
				}
				inVars := make([]bool, n+1)
				for _, v := range vars {
					inVars[v] = true
				}
				s := New(f, Config{PriorityVars: vars})
				s.SetModelBound(n)
				cols := s.XORColumns(vars)
				for cell := 0; cell < 2 && !s.Tainted(); cell++ {
					mask := uint16(1 + rng.Intn(1<<len(vars)-1))
					rhs := rng.Bool()
					row := s.AddPackedXORRemovable([]uint64{uint64(mask)}, rhs, cols)
					conj := f.Clone()
					conj.AddXOR(fuzzVars(mask, vars), rhs)
					want := map[string]bool{}
					for _, m := range BruteForceModels(conj) {
						want[m.Project(vars)] = true
					}
					blk := s.NewClauseSelector()
					assumps := []cnf.Lit{row.Lit(), blk.Lit()}
					before := s.Stats()
					got := map[string]bool{}
					st := s.Enumerate(blk, assumps, func() bool {
						key := s.Model().Project(vars)
						if !want[key] || got[key] {
							t.Fatalf("iter %d cell %d: model %q is a non-model or a repeat\n%s", iter, cell, key, cnf.DIMACSString(conj))
						}
						got[key] = true
						for lvl := len(assumps); lvl < s.decisionLevel(); lvl++ {
							if !inVars[s.trail[s.trailLim[lvl]].Var()] {
								cut++
								break
							}
						}
						return true
					})
					if st != Unsat || len(got) != len(want) {
						t.Fatalf("iter %d cell %d: Enumerate returned %v with %d projections, brute force %d\n%s",
							iter, cell, st, len(got), len(want), cnf.DIMACSString(conj))
					}
					d := s.Stats().Sub(before)
					conflicts += d[tally.Conflicts]
					if s.Okay() && !s.Tainted() && d[tally.Learned] != d[tally.Conflicts] {
						t.Fatalf("iter %d cell %d: %d learned clauses for %d conflicts", iter, cell, d[tally.Learned], d[tally.Conflicts])
					}
					s.Release(row)
					s.Release(blk)
					s.CollectGarbage()
				}
			}
			if conflicts == 0 || subset == (cut == 0) {
				t.Fatalf("%d conflicts, %d models with a decision outside vars", conflicts, cut)
			}
		})
	}
}
