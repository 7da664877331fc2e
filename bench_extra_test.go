// Additional ablation and baseline benchmarks beyond the per-table set
// in bench_test.go (experiment E7 of DESIGN.md):
//
//	BenchmarkAblationPriorityBranching – sampling-set-first decisions
//	BenchmarkBaselineBDD               – §3's BDD sampler: fast per
//	                                     sample, but compile time/size
//	                                     blows up with circuit depth
package unigen

import (
	"fmt"
	"testing"

	"unigen/internal/bdd"
	"unigen/internal/benchgen"
	"unigen/internal/bsat"
	"unigen/internal/randx"
)

// BenchmarkAblationPriorityBranching measures witness enumeration with
// and without sampling-set-first decision ordering — the solver-level
// trick that makes Tseitin-instance enumeration nearly conflict-free.
func BenchmarkAblationPriorityBranching(b *testing.B) {
	inst, err := benchgen.Generate("EnqueueSeqSK", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, prio := range []bool{true, false} {
		b.Run(fmt.Sprintf("priority=%v", prio), func(b *testing.B) {
			cfg := benchSolverCfg()
			if !prio {
				// Defeat bsat's automatic prioritization by passing the
				// full variable list.
				all := make([]Var, inst.F.NumVars)
				for i := range all {
					all[i] = Var(i + 1)
				}
				cfg.PriorityVars = all
			}
			for i := 0; i < b.N; i++ {
				res := bsat.Enumerate(inst.F, 87, bsat.Options{Solver: cfg})
				if len(res.Witnesses) != 87 && !res.BudgetExceeded {
					b.Fatalf("got %d witnesses", len(res.Witnesses))
				}
			}
		})
	}
}

// BenchmarkBaselineBDD compiles benchmark instances to BDDs and samples
// from them: exactly uniform and very fast per sample, but compile cost
// and node count grow steeply with |X| — §3's scalability critique.
func BenchmarkBaselineBDD(b *testing.B) {
	const nodeLimit = 2_000_000 // the blow-up IS the result: cap and report
	for _, name := range []string{"case110", "s526_3_2"} {
		inst, err := benchgen.Generate(name, benchgen.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		var blowup error // set when compile hits the node cap
		b.Run(name+"/compile", func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				bb := bdd.NewBuilder(inst.F.NumVars, nodeLimit)
				if _, err := bb.CompileCNF(inst.F); err != nil {
					blowup = err
					b.Skipf("BDD blow-up at %d nodes (the §3 critique): %v", bb.NumNodes(), err)
				}
				nodes = bb.NumNodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
		b.Run(name+"/sample", func(b *testing.B) {
			if blowup != nil {
				b.Skipf("BDD blow-up in compile: %v", blowup) // compiling again would hit the same cap
			}
			bb := bdd.NewBuilder(inst.F.NumVars, nodeLimit)
			root, err := bb.CompileCNF(inst.F)
			if err != nil {
				b.Skipf("BDD blow-up: %v", err)
			}
			s, err := bb.NewSampler(root)
			if err != nil {
				b.Fatal(err)
			}
			rng := randx.New(benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a := s.Sample(rng); !a.Satisfies(inst.F) {
					b.Fatal("invalid BDD sample")
				}
			}
		})
	}
}
