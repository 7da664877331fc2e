package sat

import (
	"slices"
	"sync/atomic"
	"testing"

	"unigen/internal/cnf"
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
			st := s.Enumerate(blk, S, []cnf.Lit{blk.Lit()}, func() bool {
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
			st = s.Enumerate(blk, S, []cnf.Lit{row.Lit(), blk.Lit()}, func() bool {
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
