package service_test

// BenchmarkRobustness is E13: what the overload-safety layer costs and
// what it buys. "gate-off" vs "gate-on" price the admission prologue on
// the uncontended warm path (the tax every request pays); "overload"
// drives 8× the gate's capacity through a warm service and reports
// sheds/op alongside the latency of the requests that were served —
// under the gate, served-request latency stays flat while the excess is
// rejected in microseconds instead of queueing without bound.

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"unigen/internal/service"
)

func warmBenchService(b *testing.B, cfg service.Config) *service.Service {
	b.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: benchFormula(), N: 1, Seed: 0}); err != nil {
		b.Fatal(err)
	}
	return svc
}

func BenchmarkRobustness(b *testing.B) {
	ctx := context.Background()

	b.Run("gate-off", func(b *testing.B) {
		svc := warmBenchService(b, service.Config{})
		f := benchFormula()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The full prologue armed: gate, queue, tenant quota, both deadline
	// budgets. Identical work per request; the delta to gate-off is the
	// robustness tax.
	b.Run("gate-on", func(b *testing.B) {
		svc := warmBenchService(b, service.Config{
			MaxInFlight:    8,
			MaxQueue:       16,
			TenantQuota:    8,
			DefaultTimeout: time.Minute,
		})
		f := benchFormula()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i), Timeout: time.Minute}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// 8 client goroutines against 1 admitted slot: per completed
	// operation, report how many were served vs shed and what a served
	// request cost. ns/op here blends served latency with the (cheap)
	// rejections — the interesting metrics are the custom ones.
	b.Run("overload", func(b *testing.B) {
		svc := warmBenchService(b, service.Config{
			MaxInFlight: 1,
			MaxQueue:    1,
			QueueWait:   10 * time.Millisecond,
		})
		f := benchFormula()
		var served, shed, servedNS atomic.Int64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			seed := uint64(0)
			for pb.Next() {
				seed++
				start := time.Now()
				_, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: seed})
				switch {
				case err == nil:
					served.Add(1)
					servedNS.Add(int64(time.Since(start)))
				default:
					shed.Add(1)
				}
			}
		})
		b.StopTimer()
		total := served.Load() + shed.Load()
		if total > 0 {
			b.ReportMetric(float64(shed.Load())/float64(total), "shed/op")
		}
		if s := served.Load(); s > 0 {
			b.ReportMetric(float64(servedNS.Load())/float64(s), "served-ns/op")
		}
	})
}
