// BenchmarkClauseArena (experiment E11 of DESIGN.md §4) gauges the CNF
// clause layer on the patterns UniGen's Sample loop stresses it with.
// The regimes here are CNF-propagation-heavy, not XOR-heavy:
// blocking-clause enumeration inside accepted cells, and a
// conflict-driven learn loop on a hard random 3-CNF.
//
//	enumerate/    – per-cell bounded enumeration on an incremental
//	                session (EnqueueSeqSK, m=8 hash band): every witness
//	                adds a sampling-set blocking clause, so the call is
//	                dominated by CNF watch traversal and clause install.
//	steady/       – the propagate/analyze/learn steady state: repeated
//	                budgeted Solve calls on an unsatisfiable-feeling
//	                random 3-CNF near the phase transition, no model
//	                extraction. The acceptance gauge for the arena
//	                refactor is allocs/op ≈ 0 here (clause learning and
//	                deletion without per-clause heap allocations).
package unigen

import (
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

func BenchmarkClauseArena(b *testing.B) {
	b.Run("enumerate/EnqueueSeqSK-m8", func(b *testing.B) {
		inst, err := benchgen.Generate("EnqueueSeqSK", benchgen.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		const hiThresh = 88
		rng := randx.New(benchSeed)
		sess := bsat.NewSession(inst.F, bsat.Options{Solver: benchSolverCfg()})
		vars := inst.F.SamplingVars()
		var wit int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := hashfam.Draw(rng, vars, 8)
			res := sess.Enumerate(hiThresh, h)
			if res.BudgetExceeded {
				b.Fatal("budget exceeded")
			}
			wit += int64(len(res.Witnesses))
		}
		b.StopTimer()
		b.ReportMetric(float64(wit)/float64(b.N), "witnesses/call")
	})

	b.Run("steady/random3cnf", func(b *testing.B) {
		// Hard random 3-CNF at clause/var ratio ≈ 4.4: every budgeted
		// Solve call burns its conflict budget in the propagate/learn
		// loop and returns Unknown — no model extraction, no clause
		// installs, just the learning steady state.
		const nv, nc = 300, 1320
		rng := randx.New(benchSeed + 7)
		f := cnf.New(nv)
		for i := 0; i < nc; i++ {
			lits := make([]int, 0, 3)
			for len(lits) < 3 {
				v := 1 + rng.Intn(nv)
				dup := false
				for _, l := range lits {
					if l == v || l == -v {
						dup = true
					}
				}
				if dup {
					continue
				}
				if rng.Bool() {
					v = -v
				}
				lits = append(lits, v)
			}
			f.AddClause(lits...)
		}
		s := sat.New(f, sat.Config{MaxConflicts: 200, Seed: benchSeed})
		if s.Solve() == sat.Sat {
			b.Fatal("instance too easy for the steady-state regime")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Solve() == sat.Sat {
				b.Fatal("unexpected SAT")
			}
		}
		b.StopTimer()
		st := s.Stats()
		b.ReportMetric(float64(st[tally.Learned])/float64(b.N), "learnts/op")
	})
}
