package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"unigen/internal/service"
)

// E14 (BENCH_obs.json): the observability tax. The acceptance budget
// is ≤3% added warm-path latency versus the PR 6 baseline
// (BenchmarkServicePrepared/cache-hit), which ran the identical warm
// request before the metrics registry and span plumbing existed —
// so BenchmarkObsWarmSample IS that baseline workload re-measured
// with instrumentation live, and the two JSON files diff directly.
// The obs package's BenchmarkObsDisarmedSpan (also collected into
// BENCH_obs.json) bounds the per-round span cost when no trace was
// requested: nil-receiver no-ops, no allocation.

// BenchmarkObsWarmSample is the warm /sample service path with the
// full observability spine armed at its defaults: every request pays
// outcome counters, two latency histogram observations, solver-total
// folds, and a live (but unechoed) trace.
func BenchmarkObsWarmSample(b *testing.B) {
	ctx := context.Background()
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
}

// BenchmarkObsWarmSampleHTTP adds the HTTP transport: trace-ID header
// on every response, with and without the "trace": true span echo.
func BenchmarkObsWarmSampleHTTP(b *testing.B) {
	run := func(b *testing.B, trace bool) {
		svc, err := service.New(service.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(service.NewHandler(svc))
		defer ts.Close()
		post := func(seed uint64) {
			body, _ := json.Marshal(service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: seed, Trace: trace})
			resp, err := http.Post(ts.URL+"/sample", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		post(0) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(uint64(i))
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// BenchmarkObsMetricsScrape is the scrape cost on a registry carrying
// real traffic: what a Prometheus server charges the daemon per poll.
func BenchmarkObsMetricsScrape(b *testing.B) {
	ctx := context.Background()
	f := benchFormula()
	svc, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := svc.Registry().WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
