package service_test

import (
	"context"
	"testing"

	"unigen/internal/service"
)

// The E16 trio: what the disk tier buys on the E12 workload. Cold pays
// fingerprint + full core.Setup (easy-case probe + ApproxMC) + one
// sample on a fresh service; disk-hit pays fingerprint + store read +
// CRC verify + decode + one sample on a fresh service over a warm
// directory; RAM-hit is the existing in-process ceiling. The
// cold/disk-hit ratio is the warm-restart speedup a redeployed daemon
// gets on every formula it had already prepared.

// BenchmarkStoreColdPrepare mirrors BenchmarkServicePrepared/cold with
// the store wired in (the write-behind queue is part of the cold path's
// cost, though it never blocks the request).
func BenchmarkStoreColdPrepare(b *testing.B) {
	ctx := context.Background()
	f := benchFormula()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir() // empty store: every iteration misses disk
		b.StartTimer()
		svc, err := service.New(service.Config{StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := svc.Close(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreDiskHit measures the warm-restart path: a fresh service
// (empty RAM cache) over a pre-populated directory, so every iteration
// pays open + read + verify + rehydrate + one sample.
func BenchmarkStoreDiskHit(b *testing.B) {
	ctx := context.Background()
	f := benchFormula()
	dir := b.TempDir()
	seed, err := service.New(service.Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: 0}); err != nil {
		b.Fatal(err)
	}
	if err := seed.Close(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := service.New(service.Config{StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		res, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHit {
			b.Fatal("RAM hit on a fresh service")
		}
		b.StopTimer()
		if st := svc.Stats(); st.Store.Hits != 1 {
			b.Fatalf("iteration did not hit disk: %+v", st.Store)
		}
		if err := svc.Close(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStoreRAMHit is the in-process ceiling the disk tier is
// measured against: a warm service, every request a RAM cache hit.
func BenchmarkStoreRAMHit(b *testing.B) {
	ctx := context.Background()
	f := benchFormula()
	dir := b.TempDir()
	svc, err := service.New(service.Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: 0}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close(context.Background()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
