package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"unigen/internal/service"
)

// The fingerprint memo (DESIGN §8, §13) maps a request's DIMACS text,
// or a delta's base and assumptions, to the fingerprint its cache entry
// is keyed by. These tests pin that a memo hit answers exactly what the
// parse or Conjoin path answers, and that the memo stays bounded.

// memoHandler is a handler over a fresh service with cfg; requests go
// straight to ServeHTTP, so goroutines can share it.
func memoHandler(t *testing.T, cfg service.Config) (http.Handler, *service.Service) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return service.NewHandler(svc), svc
}

// serve posts body to path and returns the status and response body.
// It does not touch t, so goroutines may call it.
func serve(h http.Handler, path string, body any) (int, []byte) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
	return rec.Code, rec.Body.Bytes()
}

// sampleOK posts a /sample request and decodes its 200 response.
func sampleOK(t *testing.T, h http.Handler, req service.SampleHTTPRequest) service.SampleHTTPResponse {
	t.Helper()
	code, body := serve(h, "/sample", req)
	if code != http.StatusOK {
		t.Fatalf("/sample: status %d: %s", code, body)
	}
	var out service.SampleHTTPResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// countOK posts a /count request and decodes its 200 response.
func countOK(t *testing.T, h http.Handler, req service.CountHTTPRequest) service.CountHTTPResponse {
	t.Helper()
	code, body := serve(h, "/count", req)
	if code != http.StatusOK {
		t.Fatalf("/count: status %d: %s", code, body)
	}
	var out service.CountHTTPResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustMemoHold fails unless svc's memo already maps text.
func mustMemoHold(t *testing.T, svc *service.Service, text string) {
	t.Helper()
	if _, ok := service.MemoFingerprint(svc, text); !ok {
		t.Fatal("the memo does not hold the formula text; the request would not be a memo hit")
	}
}

// twoClauseDIMACS has two clauses, so it can be spelled in another
// clause order; reorderedDIMACS is that spelling.
const (
	twoClauseDIMACS = "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 2\n11 12 0\n-11 -12 0\n"
	reorderedDIMACS = "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 2\n-12 -11 0\n12 11 0\n"
	easyDIMACS      = "p cnf 3 1\n1 2 3 0\n"
)

// TestMemoHitMatchesFreshService: a request served through the memo
// (no parse, no fingerprint) returns the witnesses, vars, fingerprint
// and count that the same request returns on a fresh service, and
// reports the cache hit it is.
func TestMemoHitMatchesFreshService(t *testing.T) {
	req := service.SampleHTTPRequest{Formula: hardDIMACS, N: 4, Seed: 7}

	h, svc := memoHandler(t, service.Config{})
	sampleOK(t, h, service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 1})
	mustMemoHold(t, svc, hardDIMACS)
	hit := sampleOK(t, h, req)
	hitCount := countOK(t, h, service.CountHTTPRequest{Formula: hardDIMACS})

	fh, _ := memoHandler(t, service.Config{})
	fresh := sampleOK(t, fh, req)
	freshCount := countOK(t, fh, service.CountHTTPRequest{Formula: hardDIMACS})

	if !hit.CacheHit || fresh.CacheHit {
		t.Fatalf("cache_hit: memo hit %v, fresh service %v; want true, false", hit.CacheHit, fresh.CacheHit)
	}
	if !reflect.DeepEqual(hit.Witnesses, fresh.Witnesses) || !reflect.DeepEqual(hit.Vars, fresh.Vars) || hit.Fingerprint != fresh.Fingerprint {
		t.Fatalf("memo hit %+v differs from fresh service %+v", hit, fresh)
	}
	if hitCount != freshCount || !hitCount.CacheHit {
		t.Fatalf("/count: memo hit %+v, fresh service %+v", hitCount, freshCount)
	}
}

// TestMemoHitAfterEviction: with one cache slot, A, B, A evicts A's
// entry while the memo still maps A's text. The third request is a
// memo hit that must re-prepare and answer like a cold request.
func TestMemoHitAfterEviction(t *testing.T) {
	h, svc := memoHandler(t, service.Config{CacheSize: 1})
	sampleOK(t, h, service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 1})
	sampleOK(t, h, service.SampleHTTPRequest{Formula: easyDIMACS, N: 1, Seed: 1})
	mustMemoHold(t, svc, hardDIMACS)
	again := sampleOK(t, h, service.SampleHTTPRequest{Formula: hardDIMACS, N: 3, Seed: 5})
	if again.CacheHit {
		t.Fatal("request after eviction reported a cache hit")
	}
	fh, _ := memoHandler(t, service.Config{})
	cold := sampleOK(t, fh, service.SampleHTTPRequest{Formula: hardDIMACS, N: 3, Seed: 5})
	if !reflect.DeepEqual(again.Witnesses, cold.Witnesses) || again.Fingerprint != cold.Fingerprint {
		t.Fatal("re-prepared memo hit diverged from a cold request")
	}
	if st := svc.Stats(); st.Hits != 0 || st.Misses != 3 || st.Evictions != 2 {
		t.Fatalf("cache stats hits=%d misses=%d evictions=%d, want 0/3/2", st.Hits, st.Misses, st.Evictions)
	}
}

// TestMemoReorderedSpellingHitsCache: another spelling of a formula is
// another text, so it misses the memo, but it has the same fingerprint
// and hits the cache entry the first spelling prepared.
func TestMemoReorderedSpellingHitsCache(t *testing.T) {
	h, svc := memoHandler(t, service.Config{})
	first := sampleOK(t, h, service.SampleHTTPRequest{Formula: twoClauseDIMACS, N: 3, Seed: 4})
	if _, ok := service.MemoFingerprint(svc, reorderedDIMACS); ok {
		t.Fatal("the memo maps a text no request has sent")
	}
	other := sampleOK(t, h, service.SampleHTTPRequest{Formula: reorderedDIMACS, N: 3, Seed: 4})
	if !other.CacheHit || other.Fingerprint != first.Fingerprint || !reflect.DeepEqual(other.Witnesses, first.Witnesses) {
		t.Fatalf("reordered spelling: hit=%v fp=%s, want a hit on %s with the same witnesses", other.CacheHit, other.Fingerprint, first.Fingerprint)
	}
	if n, _ := service.MemoLen(svc); n != 2 {
		t.Fatalf("memo holds %d keys, want one per spelling", n)
	}
}

// TestMemoBounded: after many more distinct texts than CacheSize, the
// memo holds no more keys than its bound.
func TestMemoBounded(t *testing.T) {
	h, svc := memoHandler(t, service.Config{CacheSize: 2})
	_, bound := service.MemoLen(svc)
	if bound <= 2 {
		t.Fatalf("memo bound %d leaves no room beyond the cache's 2 entries", bound)
	}
	for i := range 3 * bound {
		// Six formulas, each under many spellings (comment lines).
		text := fmt.Sprintf("c request %d\np cnf 3 1\n%d 0\n", i, []int{1, -1, 2, -2, 3, -3}[i%6])
		countOK(t, h, service.CountHTTPRequest{Formula: text})
		if n, _ := service.MemoLen(svc); n > bound {
			t.Fatalf("after %d texts the memo holds %d keys, bound %d", i+1, n, bound)
		}
	}
	if n, _ := service.MemoLen(svc); n != bound {
		t.Fatalf("memo holds %d keys after %d texts, want its bound %d", n, 3*bound, bound)
	}
}

// deltaLRUSequence runs a request sequence over one base formula and
// its delta [1, -2], and returns the final base-only response and the
// cache counters. Each step is "delta" or a formula text to post.
func deltaLRUSequence(t *testing.T, cacheSize int, steps ...string) (service.SampleHTTPResponse, service.Stats) {
	t.Helper()
	h, svc := memoHandler(t, service.Config{CacheSize: cacheSize})
	base := sampleOK(t, h, service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 1}).Fingerprint
	for i, step := range steps {
		switch step {
		case "delta":
			d := sampleOK(t, h, service.SampleHTTPRequest{Base: base, Assumptions: []int{1, -2}, N: 1, Seed: uint64(i)})
			if !d.Delta {
				t.Fatalf("step %d: not served as a delta", i)
			}
		default:
			sampleOK(t, h, service.SampleHTTPRequest{Formula: step, N: 1, Seed: 1})
		}
	}
	last := sampleOK(t, h, service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 2})
	return last, svc.Stats()
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestDeltaMemoKeepsBaseLRU: a delta served through the memo skips
// Conjoin and the fingerprint but still looks its base up, so the base
// keeps its hit count and LRU position. The cache counters equal what
// the same sequence produced before the memo existed: each delta counts
// a base hit and a conditioned-entry hit or miss.
func TestDeltaMemoKeepsBaseLRU(t *testing.T) {
	// Base, 1 cold + 20 memo-hit deltas, base again.
	last, st := deltaLRUSequence(t, 2, repeat("delta", 21)...)
	if !last.CacheHit {
		t.Fatal("base-only request after delta hits missed the cache")
	}
	if st.Hits != 42 || st.Misses != 2 || st.Evictions != 0 {
		t.Fatalf("cache stats hits=%d misses=%d evictions=%d, want 42/2/0", st.Hits, st.Misses, st.Evictions)
	}

	// Three slots: base, delta, formula C. Twenty delta hits must leave
	// C, not the base, least recently used, so formula E evicts C.
	steps := append([]string{"delta", easyDIMACS}, repeat("delta", 20)...)
	last, st = deltaLRUSequence(t, 3, append(steps, twoClauseDIMACS)...)
	if !last.CacheHit {
		t.Fatal("delta hits let the base fall to the back of the LRU")
	}
	if st.Hits != 42 || st.Misses != 4 || st.Evictions != 1 {
		t.Fatalf("cache stats hits=%d misses=%d evictions=%d, want 42/4/1", st.Hits, st.Misses, st.Evictions)
	}
}

// TestMemoConcurrentSameText: concurrent requests carrying one text,
// first on a cold service (memo misses racing one preparation flight)
// and then warm (memo hits), all return the same witnesses; the memo
// ends up with one key and the cache with one entry.
func TestMemoConcurrentSameText(t *testing.T) {
	const clients = 8
	h, svc := memoHandler(t, service.Config{})
	req := service.SampleHTTPRequest{Formula: hardDIMACS, N: 2, Seed: 5}
	var want []string
	for round := range 2 {
		bodies := make([][]byte, clients)
		codes := make([]int, clients)
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				codes[i], bodies[i] = serve(h, "/sample", req)
			}()
		}
		wg.Wait()
		for i := range clients {
			if codes[i] != http.StatusOK {
				t.Fatalf("round %d client %d: status %d: %s", round, i, codes[i], bodies[i])
			}
			var resp service.SampleHTTPResponse
			if err := json.Unmarshal(bodies[i], &resp); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = resp.Witnesses
			}
			if !reflect.DeepEqual(resp.Witnesses, want) {
				t.Fatalf("round %d client %d: witnesses %v, want %v", round, i, resp.Witnesses, want)
			}
		}
	}
	if n, _ := service.MemoLen(svc); n != 1 {
		t.Fatalf("memo holds %d keys, want 1", n)
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 2*clients-1 || st.Size != 1 {
		t.Fatalf("cache stats hits=%d misses=%d size=%d, want %d/1/1", st.Hits, st.Misses, st.Size, 2*clients-1)
	}
}
