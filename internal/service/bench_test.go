package service_test

import (
	"context"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/service"
)

// benchFormula is the hashing-path fixture: 1024 witnesses over a
// 10-variable sampling set, so preparation runs a real ApproxMC pass
// and sampling runs real hash-constrained enumeration.
func benchFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

// BenchmarkServicePrepared is E12: the latency gap the prepared-formula
// cache buys. "cold" pays fingerprint + full core.Setup (easy-case
// probe + ApproxMC) + sessions + one sample on a fresh service every
// iteration; "hit" pays fingerprint + cache lookup + sessions + one
// sample against a warm service. The ratio is the amortization factor a
// multi-tenant daemon gets per repeated-formula request.
func BenchmarkServicePrepared(b *testing.B) {
	ctx := context.Background()
	b.Run("cold-prepare", func(b *testing.B) {
		f := benchFormula()
		for i := 0; i < b.N; i++ {
			svc, err := service.New(service.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		f := benchFormula()
		svc, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: 0}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The pure cache path, without sampling work: what /count costs on
	// a warm daemon.
	b.Run("cache-hit-count", func(b *testing.B) {
		f := benchFormula()
		svc, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Count(ctx, service.CountRequest{Formula: f}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Count(ctx, service.CountRequest{Formula: f}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
