package service_test

import (
	"context"
	"math/big"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"unigen/internal/service"
)

// newStoreService builds a service backed by the persistent store in
// dir, with the same preparation parameters every store test shares so
// their cache keys (and hence store entries) line up across restarts.
func newStoreService(t *testing.T, dir string) *service.Service {
	t.Helper()
	return newService(t, service.Config{StoreDir: dir})
}

// closeSvc drains a service, which flushes the store's write-behind
// queue — the warm-restart contract depends on Close completing.
func closeSvc(t *testing.T, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// checkStoreDir fails unless dir holds exactly the live entries st
// counts: *.setup files only, as many as Entries, whose sizes sum to
// Bytes.
func checkStoreDir(t *testing.T, dir string, st service.StoreStats) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil || filepath.Ext(e.Name()) != ".setup" {
			t.Fatalf("unexpected file %q in the store directory (%v)", e.Name(), err)
		}
		size += fi.Size()
	}
	if len(ents) != st.Entries || size != st.Bytes {
		t.Fatalf("directory holds %d entries of %d bytes, stats %+v", len(ents), size, st)
	}
}

// setupEntries lists the store's live entry files.
func setupEntries(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.setup"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestStoreRestartRoundTrip is the tentpole acceptance test for the
// disk tier: prepare in one process-lifetime, restart onto the same
// directory, and the rehydrated Setup must serve bit-identical samples
// with zero preparation solver work.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := service.SampleRequest{Formula: hardFormula(), N: 8, Seed: 2014}

	// Lifetime 1: cold prepare (disk miss), write-behind on Close.
	svc1 := newStoreService(t, dir)
	res1, err := svc1.Sample(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ref := projectAll(t, res1)
	st1 := svc1.Stats()
	if !st1.Store.Enabled || st1.Store.Hits != 0 || st1.Store.Misses != 1 {
		t.Fatalf("lifetime 1 store stats %+v, want enabled with 1 miss", st1.Store)
	}
	closeSvc(t, svc1)
	if entries := setupEntries(t, dir); len(entries) != 1 {
		t.Fatalf("store holds %d entries after drain, want 1", len(entries))
	}

	// Lifetime 2: fresh RAM cache, same directory. The RAM tier misses
	// (CacheHit=false) but the disk tier hits, and the rehydrated setup
	// must reproduce the cold run bit for bit.
	svc2 := newStoreService(t, dir)
	res2, err := svc2.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 8, Seed: 2014})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("fresh service reported a RAM cache hit")
	}
	if got := projectAll(t, res2); !reflect.DeepEqual(got, ref) {
		t.Fatalf("warm-restart samples diverged from cold run:\n warm: %v\n cold: %v", got, ref)
	}
	st2 := svc2.Stats()
	if st2.Store.Hits != 1 || st2.Store.Misses != 0 || st2.Store.CorruptEntries != 0 {
		t.Fatalf("lifetime 2 store stats %+v, want exactly 1 hit", st2.Store)
	}
	// A disk hit is not a preparation: the foreign lifetime's solver
	// work must not leak into this process's preparation totals.
	if st2.Prepare.Requests != 0 || st2.Prepare.BSATCalls != 0 || st2.Prepare.Rounds != 0 {
		t.Fatalf("disk hit folded setup work into prepare totals: %+v", st2.Prepare)
	}

	// A different seed against the now RAM-cached rehydrated setup must
	// also match a cold service under that seed (the setup itself, not
	// just one sample stream, survived the round trip).
	cross, err := svc2.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	coldSvc := newService(t, service.Config{})
	coldRes, err := coldSvc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := projectAll(t, cross), projectAll(t, coldRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("rehydrated setup diverged under a new seed:\n warm: %v\n cold: %v", got, want)
	}
	closeSvc(t, svc2)
}

// TestStoreEasyCaseWarmHit pins the easy-case persistence contract:
// the full enumerated witness list rides in the store entry, so a warm
// restart serves easy-case samples with ZERO BSAT calls anywhere —
// no re-enumeration, no sampling-round solver work.
func TestStoreEasyCaseWarmHit(t *testing.T) {
	dir := t.TempDir()
	f := easyFormula(0)

	svc1 := newStoreService(t, dir)
	res1, err := svc1.Sample(context.Background(), service.SampleRequest{Formula: f.Clone(), N: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc1.Stats(); st.Prepare.BSATCalls == 0 {
		t.Fatal("cold easy-case preparation reported no BSAT calls; fixture no longer exercises enumeration")
	}
	closeSvc(t, svc1)

	svc2 := newStoreService(t, dir)
	res2, err := svc2.Sample(context.Background(), service.SampleRequest{Formula: f.Clone(), N: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := projectAll(t, res2), projectAll(t, res1); !reflect.DeepEqual(got, want) {
		t.Fatalf("easy-case warm samples diverged:\n warm: %v\n cold: %v", got, want)
	}
	if res2.Stats.BSATCalls() != 0 {
		t.Fatalf("warm easy-case request ran %d BSAT calls, want 0", res2.Stats.BSATCalls())
	}
	st2 := svc2.Stats()
	if st2.Store.Hits != 1 {
		t.Fatalf("store stats %+v, want 1 hit", st2.Store)
	}
	if st2.Prepare.BSATCalls != 0 || st2.Solver.BSATCalls != 0 {
		t.Fatalf("warm easy-case lifetime ran solver work: prepare=%+v solver=%+v", st2.Prepare, st2.Solver)
	}
	closeSvc(t, svc2)
}

// TestStoreFinishedCountSurvivesRestart: the /count that finishes a
// settled setup's deferred ApproxMC rounds re-persists the entry, for
// a formula entry and a conditioned delta entry alike, so a restarted
// service answers its first /count with the same value and runs no
// rounds (no approxmc span). A count that runs no rounds (a finished
// count, an easy case) writes nothing.
func TestStoreFinishedCountSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := newStoreService(t, dir)
	baseFP := prepareBase(t, svc1, hardFormula())
	first := []service.CountRequest{
		{Formula: hardFormula()},
		{Base: baseFP, Assumptions: []int{1, -2}},
	}
	want := make([]*big.Int, len(first))
	for i, req := range first {
		res, rounds, _ := countTraced(t, svc1, req)
		if rounds <= 0 {
			t.Fatalf("count %d ran %d deferred rounds, want some", i, rounds)
		}
		want[i] = res.Count
	}
	countTraced(t, svc1, first[0])
	countTraced(t, svc1, service.CountRequest{Formula: easyFormula(0)})
	closeSvc(t, svc1)
	// Three preparations (base, delta, easy) and two finished counts.
	if st := svc1.Stats().Store; st.Writes != 5 || st.WriteErrors != 0 {
		t.Fatalf("store stats %+v, want 5 writes", st)
	}

	// After the restart the conditioned entry rehydrates as the plain
	// conjoined formula (DESIGN §12, §13).
	svc2 := newStoreService(t, dir)
	t.Cleanup(func() { closeSvc(t, svc2) })
	again := []service.CountRequest{
		{Formula: hardFormula()},
		{Formula: conjoined(hardFormula(), 1, -2)},
	}
	for i, req := range again {
		res, rounds, _ := countTraced(t, svc2, req)
		if res.Count.Cmp(want[i]) != 0 || rounds != -1 {
			t.Fatalf("count %d after restart: %v with approxmc rounds %d, want %v with no span", i, res.Count, rounds, want[i])
		}
	}
	if st := svc2.Stats().Store; st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("restarted store stats %+v, want 2 hits", st)
	}
}

// TestStoreDeltaEntryRehydrates: after a restart, a delta request finds
// the conjoined entry an earlier delta persisted instead of re-running
// the conditioned setup, and serves it as the delta it was: the same
// witnesses, one store hit for the base and one for the conditioned
// entry, each a store span under the request's delta span, no
// preparation in the new lifetime, and /stats naming the base.
func TestStoreDeltaEntryRehydrates(t *testing.T) {
	dir := t.TempDir()
	h1, svc1 := memoHandler(t, service.Config{StoreDir: dir})
	baseFP := prepareBase(t, svc1, hardFormula())
	req := service.SampleHTTPRequest{Base: baseFP, Assumptions: []int{1, -2}, N: 6, Seed: 31}
	first := sampleOK(t, h1, req)
	if !first.Delta {
		t.Fatal("first lifetime's delta request not served as a delta")
	}
	closeSvc(t, svc1)

	h2, svc2 := memoHandler(t, service.Config{StoreDir: dir})
	t.Cleanup(func() { closeSvc(t, svc2) })
	req.Trace = true
	again := sampleOK(t, h2, req)
	if !again.Delta || again.CacheHit || again.Fingerprint != first.Fingerprint {
		t.Fatalf("after the restart: delta %v, cache hit %v, fingerprint %s; want a delta RAM miss for %s",
			again.Delta, again.CacheHit, again.Fingerprint, first.Fingerprint)
	}
	if !reflect.DeepEqual(again.Witnesses, first.Witnesses) {
		t.Fatalf("witnesses after the restart %v, before %v", again.Witnesses, first.Witnesses)
	}
	st := svc2.Stats()
	if st.Store.Hits != 2 || st.Store.Misses != 0 {
		t.Fatalf("restarted store stats %+v, want 2 hits", st.Store)
	}
	if st.Prepare.Requests != 0 || st.Prepare.BSATCalls != 0 {
		t.Fatalf("the restarted service prepared: %+v", st.Prepare)
	}
	if fs := formulaStats(t, svc2, again.Fingerprint); !fs.Delta || fs.Base != baseFP {
		t.Fatalf("rehydrated conditioned entry %+v, want a delta of %s", fs, baseFP)
	}
	var stores []map[string]int64
	for _, c := range again.Trace.Children {
		if c.Name != "delta" {
			continue
		}
		for _, d := range c.Children {
			if d.Name == "store" {
				stores = append(stores, d.Counters)
			}
		}
	}
	if len(stores) != 2 || stores[0]["hit"] != 1 || stores[1]["hit"] != 1 {
		t.Fatalf("store spans under delta %v, want two hits (base, conditioned entry); trace %v", stores, again.Trace)
	}
}

// TestStoreCorruptEntryDegradesToCold flips one byte of the on-disk
// entry between lifetimes: the next request must succeed by cold
// preparation (identical samples), with the rotted entry removed and
// counted — never an error surfaced to the caller.
func TestStoreCorruptEntryDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	svc1 := newStoreService(t, dir)
	res1, err := svc1.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := projectAll(t, res1)
	closeSvc(t, svc1)

	entries := setupEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(entries[0], blob, 0o600); err != nil {
		t.Fatal(err)
	}

	svc2 := newStoreService(t, dir)
	ts := httptest.NewServer(service.NewHandler(svc2))
	defer ts.Close()
	res2, err := svc2.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 3})
	if err != nil {
		t.Fatalf("corrupt entry surfaced as a request error: %v", err)
	}
	if got := projectAll(t, res2); !reflect.DeepEqual(got, ref) {
		t.Fatalf("cold fallback samples diverged:\n got: %v\n ref: %v", got, ref)
	}
	st2 := svc2.Stats()
	if st2.Store.CorruptEntries != 1 || st2.Store.Hits != 0 {
		t.Fatalf("store stats %+v, want 1 corrupt entry and 0 hits", st2.Store)
	}
	// The corruption is visible on /metrics too.
	fams := scrape(t, ts.URL)
	if got := mustValue(t, fams, "unigen_store_corrupt_entries_total", "unigen_store_corrupt_entries_total"); got != 1 {
		t.Fatalf("unigen_store_corrupt_entries_total = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_store_hits_total", "unigen_store_hits_total"); got != 0 {
		t.Fatalf("unigen_store_hits_total = %v, want 0", got)
	}
	closeSvc(t, svc2)
	// Quarantine removed the rotted file, and the cold fallback
	// re-persisted the formula: once the write-behind queue has drained,
	// the directory holds exactly the entries Stats counts.
	checkStoreDir(t, dir, svc2.Stats().Store)

	// A truncated entry in the next lifetime must degrade the same way.
	entries = setupEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("%d entries after fallback, want 1 (re-persisted)", len(entries))
	}
	blob, err = os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], blob[:len(blob)/3], 0o600); err != nil {
		t.Fatal(err)
	}
	svc3 := newStoreService(t, dir)
	res3, err := svc3.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 4, Seed: 3})
	if err != nil {
		t.Fatalf("truncated entry surfaced as a request error: %v", err)
	}
	if got := projectAll(t, res3); !reflect.DeepEqual(got, ref) {
		t.Fatalf("truncation fallback samples diverged:\n got: %v\n ref: %v", got, ref)
	}
	if st3 := svc3.Stats(); st3.Store.CorruptEntries != 1 {
		t.Fatalf("store stats %+v, want 1 corrupt entry", st3.Store)
	}
	closeSvc(t, svc3)
}

// TestStoreSingleFlightAcrossTiers: concurrent cold requests against a
// warm directory must share ONE flight and therefore ONE disk read —
// single-flight is preserved across both tiers.
func TestStoreSingleFlightAcrossTiers(t *testing.T) {
	dir := t.TempDir()
	svc1 := newStoreService(t, dir)
	if _, err := svc1.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	closeSvc(t, svc1)

	svc2 := newStoreService(t, dir)
	const clients = 16
	results := make([]*service.SampleResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc2.Sample(context.Background(), service.SampleRequest{
				Formula: hardFormula(), N: 3, Seed: 42,
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
	for i, res := range results {
		if !reflect.DeepEqual(projectAll(t, res), ref) {
			t.Fatalf("client %d diverged", i)
		}
	}
	st := svc2.Stats()
	if st.Misses != 1 {
		t.Fatalf("%d RAM misses, want 1 (single flight broken)", st.Misses)
	}
	if st.Store.Hits != 1 || st.Store.Misses != 0 {
		t.Fatalf("store stats %+v, want exactly 1 disk read", st.Store)
	}
	closeSvc(t, svc2)
}
