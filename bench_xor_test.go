// BenchmarkXORPacked (experiment E10 of DESIGN.md §4) isolates the
// bit-packed XOR engine against the legacy sparse []cnf.Var path on the
// per-cell enumeration pattern UniGen's Sample loop issues thousands of
// times: draw a fresh m-row XOR hash, enumerate up to hiThresh+1
// witnesses on an incremental session, repeat.
//
//	packed/  – dense GF(2) rows: hash drawing 64 coefficient bits per
//	           RNG word, word-scan watch selection, popcount parity
//	           folds, word-copy install through the session column map.
//	legacy/  – the scalar reference (sat.Config.ScalarXOR): per-variable
//	           draw loops, pointer-chasing propagation scans.
//
// Both variants do identical solver work per accepted cell (the
// differential tests in internal/sat and internal/bsat pin the
// semantics), so the ratio isolates the representation. The acceptance
// gauge is packed ≥ 2× faster per BSAT call on at least one Table 1
// instance.
package unigen

import (
	"fmt"
	"strings"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

func BenchmarkXORPacked(b *testing.B) {
	for _, tc := range []struct {
		name    string
		m       int  // hash bits per cell
		fullSup bool // hash over the full support instead of the sampling set
	}{
		// UniGen regime: short hash rows over the independent support
		// (m in the q−3..q band). XOR work is a minor share of these
		// calls, so the engines land close together.
		{"EnqueueSeqSK", 8, false},
		{"case110", 8, false},
		// UniWit regime (§4's bottleneck): hash rows over the full
		// support, averaging |X|/2 variables, at an m past log₂|R_F| —
		// the empty-cell UNSAT proofs that dominate UniWit's sequential
		// search over m. XOR propagation dominates these calls, so the
		// packed engine's word-parallelism shows up undiluted; this is
		// the E10 acceptance row (packed ≥ 2× on EnqueueSeqSK, Table 1).
		{"EnqueueSeqSK-fullsup", 16, true},
		{"case110-fullsup", 16, true},
	} {
		inst, err := benchgen.Generate(strings.TrimSuffix(tc.name, "-fullsup"), benchgen.ScaleSmall, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		hashVars := inst.F.SamplingVars()
		if tc.fullSup {
			hashVars = make([]cnf.Var, inst.F.NumVars)
			for i := range hashVars {
				hashVars[i] = cnf.Var(i + 1)
			}
		}
		const hiThresh = 88
		for _, variant := range []struct {
			name   string
			scalar bool
		}{
			{"packed", false},
			{"legacy", true},
		} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, variant.name), func(b *testing.B) {
				cfg := benchSolverCfg()
				cfg.ScalarXOR = variant.scalar
				rng := randx.New(benchSeed)
				sess := bsat.NewSession(inst.F, bsat.Options{Solver: cfg})
				var props int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h := hashfam.Draw(rng, hashVars, tc.m)
					res := sess.Enumerate(hiThresh, h)
					if res.BudgetExceeded {
						b.Fatal("budget exceeded")
					}
					props += res.Stats[tally.Propagations]
				}
				b.StopTimer()
				b.ReportMetric(float64(props)/float64(b.N), "props/call")
			})
		}
	}
}
