package service_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/service"
)

// hardFormula has 1024 witnesses over its 10-variable sampling set,
// forcing the hashing path at ε=6 (mirrors the parallel test fixture).
func hardFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

// easyFormula yields a distinct easy-case formula (cheap preparation,
// no ApproxMC) per tag: (x1 ∨ x2) plus a tag-dependent forced unit.
func easyFormula(tag int) *cnf.Formula {
	f := cnf.New(3 + tag)
	f.AddClause(1, 2)
	f.AddClause(3 + tag)
	return f
}

func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func projectAll(t *testing.T, res *service.SampleResult) []string {
	t.Helper()
	out := make([]string, len(res.Witnesses))
	for i, w := range res.Witnesses {
		out[i] = w.Project(res.Vars)
	}
	return out
}

// TestSingleFlightConcurrentRequests is the tentpole cache contract: 32
// concurrent requests for one formula must trigger exactly one
// preparation (one miss, 31 hits), and every request must get the
// correct, identical answer for its (seed, n).
func TestSingleFlightConcurrentRequests(t *testing.T) {
	svc := newService(t, service.Config{ApproxMCRounds: 15})
	f := hardFormula()
	const clients = 32
	results := make([]*service.SampleResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Sample(context.Background(), service.SampleRequest{
				Formula: f.Clone(), // distinct pointers: identity is the fingerprint
				N:       3,
				Seed:    42,
			})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
	}
	ref := projectAll(t, results[0])
	hits := 0
	for i, res := range results {
		if !reflect.DeepEqual(projectAll(t, res), ref) {
			t.Fatalf("client %d: witnesses diverged for identical (formula, seed, n)", i)
		}
		if res.CacheHit {
			hits++
		}
		// Hit-path requests must show zero setup work: per-request stats
		// cover sampling rounds only.
		if res.Stats.SetupRounds() != 0 {
			t.Fatalf("client %d: request stats report %d setup rounds", i, res.Stats.SetupRounds())
		}
	}
	st := svc.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d preparations ran, want exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits != clients-1 || hits != clients-1 {
		t.Fatalf("hits: counter=%d flags=%d, want %d", st.Hits, hits, clients-1)
	}
	if st.Size != 1 || len(st.Formulas) != 1 {
		t.Fatalf("cache size %d / %d formulas, want 1/1", st.Size, len(st.Formulas))
	}
	fs := st.Formulas[0]
	if fs.Requests != clients || fs.Samples != clients*3 {
		t.Fatalf("per-formula counters %+v, want %d requests / %d samples", fs, clients, clients*3)
	}
	if fs.Fingerprint != cnf.FingerprintString(f) {
		t.Fatalf("fingerprint mismatch: %s", fs.Fingerprint)
	}
}

// TestCacheHitSkipsPreparation pins the amortization claim in isolation:
// a warm second request reports a hit and runs no ApproxMC.
func TestCacheHitSkipsPreparation(t *testing.T) {
	svc := newService(t, service.Config{ApproxMCRounds: 15})
	cold, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	warm, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if warm.Stats.SetupRounds() != 0 {
		t.Fatalf("hit path ran %d ApproxMC rounds", warm.Stats.SetupRounds())
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss / 1 hit", st)
	}
}

// TestSeedReuseAcrossCache: a cached setup must serve other seeds with
// the samples a cold service would produce — the fingerprint-derived
// preparation RNG at work.
func TestSeedReuseAcrossCache(t *testing.T) {
	warmSvc := newService(t, service.Config{ApproxMCRounds: 15})
	// Warm the cache under seed 7, then query seed 99.
	if _, err := warmSvc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	warm, err := warmSvc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	coldSvc := newService(t, service.Config{ApproxMCRounds: 15})
	cold, err := coldSvc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(projectAll(t, warm), projectAll(t, cold)) {
		t.Fatal("cache-hit samples for seed 99 differ from a cold run")
	}
	if !warm.CacheHit || cold.CacheHit {
		t.Fatalf("hit flags: warm=%v cold=%v", warm.CacheHit, cold.CacheHit)
	}
}

// TestLRUEviction: with capacity 2, a third formula evicts the least
// recently used one, and re-requesting it re-prepares.
func TestLRUEviction(t *testing.T) {
	svc := newService(t, service.Config{CacheSize: 2})
	ctx := context.Background()
	for tag := 0; tag < 3; tag++ {
		if _, err := svc.Sample(ctx, service.SampleRequest{Formula: easyFormula(tag), N: 2, Seed: 1}); err != nil {
			t.Fatalf("formula %d: %v", tag, err)
		}
	}
	st := svc.Stats()
	if st.Misses != 3 || st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("after 3 formulas: %+v, want 3 misses / 1 eviction / size 2", st)
	}
	// Formula 1 is still cached (hit); formula 0 was evicted (miss).
	res, err := svc.Sample(ctx, service.SampleRequest{Formula: easyFormula(1), N: 1, Seed: 1})
	if err != nil || !res.CacheHit {
		t.Fatalf("formula 1: err=%v hit=%v, want cached", err, res.CacheHit)
	}
	res, err = svc.Sample(ctx, service.SampleRequest{Formula: easyFormula(0), N: 1, Seed: 1})
	if err != nil || res.CacheHit {
		t.Fatalf("formula 0: err=%v hit=%v, want re-prepared", err, res.CacheHit)
	}
	st = svc.Stats()
	if st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("after re-request: %+v, want 4 misses / 2 evictions", st)
	}
}

// TestCancellationMidRequest: cancelling a large sampling request must
// interrupt in-flight SAT search and fail with ctx.Err() promptly, and
// the service must stay usable.
func TestCancellationMidRequest(t *testing.T) {
	svc := newService(t, service.Config{ApproxMCRounds: 15, Workers: 2})
	// Warm the cache so the cancellation below lands mid-SAMPLING, not
	// mid-preparation (the cold path has its own test).
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.Sample(ctx, service.SampleRequest{Formula: hardFormula(), N: 100000, Seed: 3})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled request took %v to return", elapsed)
	}
	// The cached setup survives the aborted request.
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 3})
	if err != nil || len(res.Witnesses) != 2 || !res.CacheHit {
		t.Fatalf("post-cancel request: err=%v hit=%v", err, res != nil && res.CacheHit)
	}
}

// TestColdPathCancellation: the request that INITIATES a preparation
// must also be cancellable — it cannot be pinned behind the ApproxMC
// setup it triggered. And once its last (here: only) waiter is gone,
// the flight must abort rather than burn an unbudgeted solver forever:
// the aborted preparation is not cached, and a later request simply
// re-prepares.
func TestColdPathCancellation(t *testing.T) {
	svc := newService(t, service.Config{}) // paper-default ApproxMC rounds: setup takes ~seconds
	f := cnf.New(18)                       // 2^16 projected witnesses
	f.AddClause(17, 18)
	f.SamplingSet = make([]cnf.Var, 16)
	for i := range f.SamplingSet {
		f.SamplingSet[i] = cnf.Var(i + 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("initiating request took %v after its deadline", elapsed)
	}
	// The abandoned flight aborts via its solver interrupt and removes
	// its uncached entry.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Size != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned flight still cached after %v: %+v", 30*time.Second, svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A fresh request re-prepares from scratch and succeeds.
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: f, N: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("aborted flight's result should not have been cached")
	}
	if st := svc.Stats(); st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats %+v, want 2 misses and the re-prepared entry cached", st)
	}
}

// TestCountUsesPreparedState: counts come from the prepared setup —
// exact in the easy case, and answered from cache on hits.
func TestCountUsesPreparedState(t *testing.T) {
	svc := newService(t, service.Config{ApproxMCRounds: 15})
	ctx := context.Background()

	easy := cnf.New(2)
	easy.AddClause(1, 2) // exactly 3 witnesses
	res, err := svc.Count(ctx, service.CountRequest{Formula: easy})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Count.Int64() != 3 {
		t.Fatalf("easy count %v exact=%v, want exactly 3", res.Count, res.Exact)
	}

	hard := hardFormula() // 1024 projected witnesses: estimate path
	res, err = svc.Count(ctx, service.CountRequest{Formula: hard})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("hashing-path formula reported an exact count")
	}
	// ApproxMC at (0.8, 0.2) should be within a factor 1.8 of 1024.
	if c := res.Count.Int64(); c < 1024/2 || c > 1024*2 {
		t.Fatalf("estimate %d wildly off the exact 1024", c)
	}
	again, err := svc.Count(ctx, service.CountRequest{Formula: hard})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Count.Cmp(res.Count) != 0 {
		t.Fatalf("warm count hit=%v %v, want cached %v", again.CacheHit, again.Count, res.Count)
	}
	st := svc.Stats()
	for _, fs := range st.Formulas {
		if fs.Fingerprint == cnf.FingerprintString(hard) && fs.Counts != 2 {
			t.Fatalf("per-formula count counter %d, want 2", fs.Counts)
		}
	}
}

// TestUnsatFormula: preparation succeeds (easy case, zero witnesses),
// Count is exactly 0, Sample errors.
func TestUnsatFormula(t *testing.T) {
	svc := newService(t, service.Config{})
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	res, err := svc.Count(context.Background(), service.CountRequest{Formula: f})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Count.Sign() != 0 {
		t.Fatalf("unsat count %v exact=%v, want exactly 0", res.Count, res.Exact)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: f, N: 1, Seed: 1}); err == nil {
		t.Fatal("sampling an unsatisfiable formula succeeded")
	}
}

// TestValidation: bad requests fail fast.
func TestValidation(t *testing.T) {
	if _, err := service.New(service.Config{Epsilon: 1.0}); err == nil {
		t.Fatal("epsilon 1.0 accepted")
	}
	svc := newService(t, service.Config{})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: easyFormula(0), N: 0, Seed: 1}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{N: 1}); err == nil {
		t.Fatal("nil formula accepted")
	}
}

// TestConcurrentMixedFormulas drives distinct formulas and seeds
// through one service concurrently (race-detector fodder) and checks
// every answer against a per-formula reference.
func TestConcurrentMixedFormulas(t *testing.T) {
	svc := newService(t, service.Config{ApproxMCRounds: 15, CacheSize: 8})
	formulas := []*cnf.Formula{easyFormula(0), easyFormula(1), hardFormula()}
	refs := make([]map[uint64][]string, len(formulas))
	for i, f := range formulas {
		refs[i] = map[uint64][]string{}
		for seed := uint64(0); seed < 3; seed++ {
			res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: f, N: 2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			refs[i][seed] = projectAll(t, res)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fi := g % len(formulas)
			seed := uint64(g % 3)
			res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: formulas[fi].Clone(), N: 2, Seed: seed})
			if err != nil {
				errCh <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			if !reflect.DeepEqual(projectAll(t, res), refs[fi][seed]) {
				errCh <- fmt.Errorf("goroutine %d: witnesses diverged from reference", g)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
