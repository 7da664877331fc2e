// Benchmarks regenerating every table and figure of the DAC'14 paper
// (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1/*        – E1: per-witness cost, UniGen vs UniWit
//	BenchmarkTable2Extra/*   – E2: the additional Table 2 rows
//	BenchmarkFigure1/*       – E3: UniGen vs US per-sample cost on case110
//	BenchmarkEpsilonSweep/*  – E5: ε knob (hiThresh ⇒ BSAT work)
//	BenchmarkAblation*       – E7: design-choice ablations
//	BenchmarkSubstrate*      – substrate micro-benchmarks
//
// Shapes to compare with the paper (absolute numbers are machine- and
// scale-dependent): UniGen beats UniWit by orders of magnitude on
// small-support/large-|X| instances; UniGen XOR length ≈ |S|/2 vs
// UniWit's ≈ |X|/2; US and UniGen costs on case110 differ by the BSAT
// overhead only.
package unigen

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"unigen/internal/baseline"
	"unigen/internal/benchgen"
	"unigen/internal/core"
	"unigen/internal/counter"
	"unigen/internal/parallel"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

const benchSeed = 0xbe7c

func benchSolverCfg() sat.Config {
	// Budgets mirror the experiment harness defaults; without the
	// propagation bound, the no-priority-branching ablation can spend
	// minutes per enumeration call.
	return sat.Config{MaxConflicts: 200000, MaxPropagations: 5_000_000, Seed: benchSeed}
}

// benchEngine runs UniGen's setup on f at tolerance eps, hashing over
// set (nil: f's own sampling set), and returns a one-worker engine whose
// rounds draw from benchSeed.
func benchEngine(b *testing.B, f *Formula, eps float64, set []Var) *parallel.Engine {
	eng, err := parallel.NewEngine(f, parallel.Options{
		Workers:    1,
		MasterSeed: benchSeed,
		Core:       core.Options{Epsilon: eps, SamplingSet: set, Solver: benchSolverCfg(), ApproxMCRounds: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchSamples times b.N witnesses from eng, one per op with ⊥ rounds
// retried: the paper's per-witness cost.
func benchSamples(b *testing.B, eng *parallel.Engine) {
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sample(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// benchUniGen measures one UniGen sample (setup amortized outside the
// timed loop, as in the paper's per-witness averages).
func benchUniGen(b *testing.B, inst *benchgen.Instance) {
	eng := benchEngine(b, inst.F, 6, nil)
	benchSamples(b, eng)
	st := eng.Stats()
	b.ReportMetric(st.AvgXORLen(), "xorlen")
	b.ReportMetric(st.SuccessProb(), "succ")
}

// benchUniWit measures one UniWit sample (nothing to amortize — the
// whole m search repeats per sample, which is the point of Table 1).
// Budget exhaustion is the paper's "−" outcome: recorded via the
// budgetout metric, not a bench failure.
func benchUniWit(b *testing.B, inst *benchgen.Instance) {
	uw := baseline.NewUniWit(inst.F, baseline.UniWitOptions{Solver: benchSolverCfg()})
	rng := randx.New(benchSeed + 1)
	budgetOuts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := uw.Sample(rng)
		if err != nil && !errors.Is(err, baseline.ErrFailed) {
			if baseline.ErrBudget(err) {
				budgetOuts++
				continue
			}
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := uw.Stats()
	b.ReportMetric(st.AvgXORLen(), "xorlen")
	b.ReportMetric(st.SuccessProb(), "succ")
	b.ReportMetric(float64(budgetOuts)/float64(b.N), "budgetout")
}

func benchTableRows(b *testing.B, names []string) {
	for _, name := range names {
		inst, err := benchgen.Generate(name, benchgen.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/UniGen", func(b *testing.B) { benchUniGen(b, inst) })
		b.Run(name+"/UniWit", func(b *testing.B) { benchUniWit(b, inst) })
	}
}

// BenchmarkTable1 regenerates the 12 rows of Table 1 (E1).
func BenchmarkTable1(b *testing.B) {
	var names []string
	for _, sp := range benchgen.TableRows(1) {
		names = append(names, sp.Name)
	}
	benchTableRows(b, names)
}

// BenchmarkTable2Extra regenerates the rows Table 2 adds beyond
// Table 1 (E2).
func BenchmarkTable2Extra(b *testing.B) {
	inT1 := map[string]bool{}
	for _, sp := range benchgen.TableRows(1) {
		inT1[sp.Name] = true
	}
	var names []string
	for _, sp := range benchgen.TableRows(2) {
		if !inT1[sp.Name] {
			names = append(names, sp.Name)
		}
	}
	benchTableRows(b, names)
}

// BenchmarkFigure1 measures the two samplers of Figure 1 (E3) on the
// case110 instance: UniGen vs the ideal uniform sampler US.
func BenchmarkFigure1(b *testing.B) {
	inst, err := benchgen.Generate("case110", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UniGen", func(b *testing.B) { benchUniGen(b, inst) })
	b.Run("US", func(b *testing.B) {
		us, err := baseline.NewUS(inst.F, 1<<16, benchSolverCfg())
		if err != nil {
			b.Fatal(err)
		}
		rng := randx.New(benchSeed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			us.Sample(rng)
		}
	})
}

// BenchmarkEpsilonSweep regenerates E5: smaller ε ⇒ larger hiThresh ⇒
// costlier BSAT calls (§4 "Trading scalability with uniformity").
func BenchmarkEpsilonSweep(b *testing.B) {
	inst, err := benchgen.Generate("case110", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{3, 6, 12} {
		b.Run(fmt.Sprintf("eps%.0f", eps), func(b *testing.B) {
			kp, err := core.ComputeKappaPivot(eps)
			if err != nil {
				b.Fatal(err)
			}
			eng := benchEngine(b, inst.F, eps, nil)
			b.ReportMetric(float64(kp.HiThresh), "hiThresh")
			benchSamples(b, eng)
		})
	}
}

// BenchmarkAblationSamplingSet isolates the paper's key design choice
// (E7): hashing over the independent support S versus over the full
// support X, on the same instance. The full-support variant is UniGen
// with SamplingSet forced to all variables.
func BenchmarkAblationSamplingSet(b *testing.B) {
	inst, err := benchgen.Generate("LLReverse", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	full := make([]Var, inst.F.NumVars)
	for i := range full {
		full[i] = Var(i + 1)
	}
	for _, tc := range []struct {
		name string
		set  []Var
	}{
		{"SupportS", nil}, // formula's own sampling set
		{"FullX", full},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := benchEngine(b, inst.F, 6, tc.set)
			benchSamples(b, eng)
			b.ReportMetric(eng.Stats().AvgXORLen(), "xorlen")
		})
	}
}

// BenchmarkAblationAmortization isolates UniGen's once-per-formula
// setup (E7): sampling with amortized state versus paying setup on
// every sample (UniWit's regime).
func BenchmarkAblationAmortization(b *testing.B) {
	inst, err := benchgen.Generate("s526_3_2", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Amortized", func(b *testing.B) { benchUniGen(b, inst) })
	b.Run("SetupPerSample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := benchEngine(b, inst.F, 6, nil).Sample(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGaussJordan measures the solver's XOR preprocessing
// on a parity-heavy instance (E7).
func BenchmarkAblationGaussJordan(b *testing.B) {
	inst, err := benchgen.Generate("s526_15_7", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, gauss := range []bool{false, true} {
		b.Run(fmt.Sprintf("gauss=%v", gauss), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchSolverCfg()
				cfg.GaussJordan = gauss
				s := sat.New(inst.F, cfg)
				if s.Solve() != sat.Sat {
					b.Fatal("instance must be SAT")
				}
			}
		})
	}
}

// BenchmarkSubstrateSolver measures raw CDCL throughput on a random
// 3-SAT instance near the phase transition.
func BenchmarkSubstrateSolver(b *testing.B) {
	rng := randx.New(benchSeed)
	f := NewFormula(120)
	for i := 0; i < 500; i++ {
		c := make([]int, 3)
		for j := range c {
			v := rng.Intn(120) + 1
			if rng.Bool() {
				v = -v
			}
			c[j] = v
		}
		f.AddClause(c...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sat.New(f, sat.Config{Seed: uint64(i)})
		s.Solve()
	}
}

// BenchmarkSubstrateApproxMC measures the setup-phase counter on a
// mid-size witness space.
func BenchmarkSubstrateApproxMC(b *testing.B) {
	f := NewFormula(14)
	f.AddClause(13, 14)
	f.SamplingSet = []Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i := 0; i < b.N; i++ {
		rng := randx.New(uint64(i))
		if _, err := counter.ApproxMC(f, rng, counter.ApproxMCOptions{
			Epsilon: 0.8, Delta: 0.2, MaxHashRounds: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrateSharpSAT measures the exact #SAT engine.
func BenchmarkSubstrateSharpSAT(b *testing.B) {
	rng := randx.New(benchSeed)
	f := NewFormula(40)
	for i := 0; i < 60; i++ {
		c := make([]int, 3)
		for j := range c {
			v := rng.Intn(40) + 1
			if rng.Bool() {
				v = -v
			}
			c[j] = v
		}
		f.AddClause(c...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := counter.ExactSharpSAT(f); err != nil {
			b.Fatal(err)
		}
	}
}
