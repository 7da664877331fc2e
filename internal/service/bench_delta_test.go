package service_test

import (
	"context"
	"fmt"
	"testing"

	"unigen/internal/service"
)

// benchAssumptionSets are the rotating 1–4-literal deltas both
// benchmarks sample under — the "same conjoined formula" either served
// cold (full prepare per request) or as a delta over a warm base
// (pooled sessions, cached conditioned entries).
var benchAssumptionSets = [][]int{
	{1},
	{1, -2},
	{1, -2, 3},
	{1, -2, 3, -4},
}

// BenchmarkDeltaColdPrepare is the baseline the delta path is measured
// against: every request posts the conjoined formula to a fresh
// service, paying DIMACS-free but full preparation — solver build,
// ApproxMC estimation — before sampling.
func BenchmarkDeltaColdPrepare(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		conj := conjoined(hardFormula(), benchAssumptionSets[i%len(benchAssumptionSets)]...)
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: conj, N: 1, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaReuse serves the identical conjoined formulas as delta
// requests over one warm base: after the first pass over the rotation
// the conditioned entries are cached, so a request is pure pooled
// sampling rounds. The acceptance bar for this PR is ≥3× cheaper per
// request than BenchmarkDeltaColdPrepare.
func BenchmarkDeltaReuse(b *testing.B) {
	ctx := context.Background()
	svc, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	base := res.Fingerprint
	// One warm-up pass over the rotation: the first request per
	// assumption set conditions the base on a pooled session; steady
	// state — what a client issuing repeated delta requests sees — is
	// cached conditioned entries and pure sampling rounds.
	for _, assumps := range benchAssumptionSets {
		if _, err := svc.Sample(ctx, service.SampleRequest{Base: base, Assumptions: assumps, N: 1, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := service.SampleRequest{Base: base, Assumptions: benchAssumptionSets[i%len(benchAssumptionSets)], N: 1, Seed: 5}
		if _, err := svc.Sample(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := svc.Stats(); st.Delta.Served < int64(b.N) {
		b.Fatal(fmt.Sprintf("only %d of %d requests served through the delta path", st.Delta.Served, b.N))
	}
}
