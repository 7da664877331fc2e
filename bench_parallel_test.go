// BenchmarkParallelSampling (experiment E9 of DESIGN.md §4) measures
// the worker-pool engine's throughput scaling: the one-time setup is
// excluded, and each benchmark iteration is one returned almost-uniform
// sample, so ns/op across the j1/j2/j4/j8 variants reads directly as
// per-sample latency at that pool size. On a machine with ≥4 cores the
// j4 variant should run ≥2.5× faster than j1 (rounds are independent;
// the only serial parts are round dispatch and in-order collection).
// On a single-core box all variants collapse to j1 throughput — the
// engine adds no contention, just goroutine scheduling.
//
// The sample multiset is identical across all variants for the fixed
// master seed (the determinism invariant of internal/parallel), so the
// variants do exactly the same solver work and the ratio isolates
// parallel speedup rather than workload drift.
package unigen

import (
	"context"
	"fmt"
	"testing"

	"unigen/internal/benchgen"
	"unigen/internal/core"
	"unigen/internal/parallel"
)

func BenchmarkParallelSampling(b *testing.B) {
	// EnqueueSeqSK is the Table 1 (sketch family) analogue also used by
	// E8: a small sampling set over a larger Tseitin encoding, the
	// regime the paper targets.
	inst, err := benchgen.Generate("EnqueueSeqSK", benchgen.ScaleSmall, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("EnqueueSeqSK/j%d", workers), func(b *testing.B) {
			eng, err := parallel.NewEngine(inst.F, parallel.Options{
				Workers:    workers,
				MasterSeed: benchSeed,
				Core:       core.Options{Epsilon: 6, Solver: benchSolverCfg()},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			ws, err := eng.SampleN(context.Background(), b.N)
			if err != nil {
				b.Fatal(err)
			}
			if len(ws) != b.N {
				b.Fatalf("got %d samples, want %d", len(ws), b.N)
			}
			b.StopTimer()
			st := eng.Stats()
			b.ReportMetric(st.SuccessProb(), "succ-prob")
			b.ReportMetric(float64(st.BSATCalls())/float64(b.N), "bsat-calls/sample")
		})
	}
}
