package unigen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"unigen"
)

// transportFixture is a hashing-path formula (1024 witnesses over a
// 10-variable sampling set) used for the cross-transport contract.
const transportFixture = "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 1\n11 12 0\n"

// prunedFixture declares all 12 variables, but x11 = x1 ⊕ x2 and
// x12 = x3 ∧ x4, so setup hashes over x2..x11 only (1024 witnesses).
// prunedShuffled is the same formula with its clauses and literals
// reordered: the same fingerprint, so it must get the same hash set.
const (
	prunedFixture  = "p cnf 12 7\n-11 1 2 0\n-11 -1 -2 0\n11 -1 2 0\n11 1 -2 0\n-12 3 0\n-12 4 0\n12 -3 -4 0\n"
	prunedShuffled = "p cnf 12 7\n-4 -3 12 0\n4 -12 0\n2 1 -11 0\n-2 1 11 0\n3 -12 0\n2 -1 11 0\n-2 -1 -11 0\n"
)

func bitstrings(ws []unigen.Witness, vars []unigen.Var) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		var sb strings.Builder
		for _, b := range w.Bits(vars) {
			if b {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		out[i] = sb.String()
	}
	return out
}

// TestSamplesBitIdenticalAcrossTransports is the tentpole acceptance
// test: for a fixed (formula, seed, n), Sampler.SampleN, the embedded
// Service (cold AND cache-hit, with a different warming seed), and the
// HTTP daemon transport must return bit-identical witness sequences.
// The pruned case hashes over fewer variables than it declares, and
// the services receive it with its clauses shuffled.
func TestSamplesBitIdenticalAcrossTransports(t *testing.T) {
	t.Run("declared", func(t *testing.T) { checkTransports(t, transportFixture, transportFixture) })
	t.Run("pruned", func(t *testing.T) { checkTransports(t, prunedFixture, prunedShuffled) })
}

// checkTransports samples fixture on the Sampler and posted (the same
// formula, possibly presented differently) on every service transport.
func checkTransports(t *testing.T, fixture, posted string) {
	const (
		seed = uint64(2014)
		n    = 8
	)
	f, err := unigen.ParseDIMACSString(fixture)
	if err != nil {
		t.Fatal(err)
	}
	g, err := unigen.ParseDIMACSString(posted)
	if err != nil {
		t.Fatal(err)
	}
	if unigen.FormulaFingerprint(g) != unigen.FormulaFingerprint(f) {
		t.Fatal("posted presentation fingerprints differently")
	}
	vars := f.SamplingVars()

	// Transport 1: the direct Sampler (worker-pool path).
	s, err := unigen.NewSampler(f, unigen.Options{Epsilon: 6, Seed: seed, ApproxMCRounds: 15, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.SampleN(n)
	if err != nil {
		t.Fatal(err)
	}
	ref := bitstrings(ws, vars)
	if fixture == prunedFixture && len(s.HashSet()) >= len(vars) {
		t.Fatalf("hash set %v does not prune sampling set %v", s.HashSet(), vars)
	}

	// Transport 2: the embedded Service — warmed under a DIFFERENT seed
	// first, so the cache-hit path must serve seed 2014 from a setup it
	// prepared for seed 77's request.
	svc, err := unigen.NewService(unigen.ServiceOptions{Epsilon: 6, ApproxMCRounds: 15, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample(context.Background(), g, 77, 2); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Sample(context.Background(), g, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if hot := bitstrings(got, vars); !reflect.DeepEqual(hot, ref) {
		t.Fatalf("Service samples diverged from Sampler:\n service: %v\n sampler: %v", hot, ref)
	}

	// Transport 3: HTTP, against a fresh service (cold path) and then
	// the same daemon again (hit path).
	ts := httptest.NewServer(mustService(t).Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		body, _ := json.Marshal(map[string]any{"formula": posted, "n": n, "seed": seed})
		resp, err := http.Post(ts.URL+"/sample", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Vars      []int    `json:"vars"`
			Witnesses []string `json:"witnesses"`
			CacheHit  bool     `json:"cache_hit"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP status %d", resp.StatusCode)
		}
		if out.CacheHit != (i == 1) {
			t.Fatalf("request %d: cache_hit=%v", i, out.CacheHit)
		}
		if !reflect.DeepEqual(out.Witnesses, ref) {
			t.Fatalf("HTTP samples (pass %d) diverged from Sampler:\n http:    %v\n sampler: %v", i, out.Witnesses, ref)
		}
	}

	// Transport 4: warm restart through the persistent store. A first
	// service lifetime prepares under a different seed and drains its
	// write-behind queue; a second lifetime on the same directory must
	// rehydrate from disk (no RAM hit, one store hit) and still serve
	// seed 2014 bit-identically.
	dir := t.TempDir()
	warm, err := unigen.NewService(unigen.ServiceOptions{Epsilon: 6, ApproxMCRounds: 15, Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Sample(context.Background(), g, 77, 2); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	restarted, err := unigen.NewService(unigen.ServiceOptions{Epsilon: 6, ApproxMCRounds: 15, Workers: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rws, err := restarted.Sample(context.Background(), g, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := bitstrings(rws, vars); !reflect.DeepEqual(got, ref) {
		t.Fatalf("warm-restart samples diverged from Sampler:\n restart: %v\n sampler: %v", got, ref)
	}
	if st := restarted.Stats(); st.Store.Hits != 1 || st.Hits != 0 {
		t.Fatalf("restart stats: store hits %d / RAM hits %d, want 1 / 0", st.Store.Hits, st.Hits)
	}
	if err := restarted.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The multiset must also be worker-count independent end to end.
	s4, err := unigen.NewSampler(f, unigen.Options{Epsilon: 6, Seed: seed, ApproxMCRounds: 15, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws4, err := s4.SampleN(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := bitstrings(ws4, vars); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Workers=4 sampler diverged from Workers=2: %v vs %v", got, ref)
	}
}

func mustService(t *testing.T) *unigen.Service {
	t.Helper()
	svc, err := unigen.NewService(unigen.ServiceOptions{Epsilon: 6, ApproxMCRounds: 15, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestServiceFacade exercises the embedded facade end to end: counts,
// fingerprints, and cache stats.
func TestServiceFacade(t *testing.T) {
	svc := mustService(t)
	f, err := unigen.ParseDIMACSString("p cnf 2 1\n1 2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	c, exact, err := svc.Count(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !exact || c.Int64() != 3 {
		t.Fatalf("count %v exact=%v, want exactly 3", c, exact)
	}
	ws, err := svc.Sample(context.Background(), f, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if !w.Satisfies(f) {
			t.Fatal("service returned a non-witness")
		}
	}
	st := svc.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Fatalf("stats %+v, want 1 miss / 1 hit / size 1", st)
	}
	if len(st.Formulas) != 1 {
		t.Fatalf("%d formulas in stats", len(st.Formulas))
	}
	fs := st.Formulas[0]
	if fs.Fingerprint != unigen.FormulaFingerprint(f) || !fs.EasyCase {
		t.Fatalf("formula stats %+v", fs)
	}
	if fs.Requests != 2 || fs.Samples != 10 || fs.Counts != 1 {
		t.Fatalf("counters %+v", fs)
	}
	if fs.SamplingVars != 2 || fs.HashVars != 2 || fs.Q != 0 {
		t.Fatalf("sampling vars %d, hash vars %d, q %d; want 2, 2, 0", fs.SamplingVars, fs.HashVars, fs.Q)
	}
}
