package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/service"
)

const hardDIMACS = "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 1\n11 12 0\n"

func newHTTPServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPSampleRoundTrip(t *testing.T) {
	ts, svc := newHTTPServer(t)
	resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 4, Seed: 11})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[service.SampleHTTPResponse](t, resp)
	if len(body.Witnesses) != 4 || len(body.Vars) != 10 {
		t.Fatalf("got %d witnesses over %d vars", len(body.Witnesses), len(body.Vars))
	}
	if body.CacheHit {
		t.Fatal("cold request reported a cache hit")
	}
	for _, w := range body.Witnesses {
		if len(w) != len(body.Vars) || strings.Trim(w, "01") != "" {
			t.Fatalf("malformed witness bitstring %q", w)
		}
	}
	if body.Stats.Samples != 4 || body.Stats.Rounds < 4 {
		t.Fatalf("stats block %+v", body.Stats)
	}

	// Same request again: served from cache, bit-identical.
	resp2 := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 4, Seed: 11})
	body2 := decode[service.SampleHTTPResponse](t, resp2)
	if !body2.CacheHit {
		t.Fatal("warm request missed the cache")
	}
	for i := range body.Witnesses {
		if body.Witnesses[i] != body2.Witnesses[i] {
			t.Fatalf("witness %d diverged across identical requests", i)
		}
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestHTTPStatsJSONKeys pins the JSON surface of the solver counters:
// the exact key sets of the /stats "solver" and "prepare" blocks and of
// the /sample "stats" block.
func TestHTTPStatsJSONKeys(t *testing.T) {
	ts, _ := newHTTPServer(t)
	resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 2, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample status %d", resp.StatusCode)
	}
	sample := decode[map[string]any](t, resp)
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	stats := decode[map[string]any](t, statsResp)

	totals := []string{"requests", "rounds", "samples", "failures", "bsat_calls", "conflicts",
		"propagations", "xor_rows", "learned", "removed", "compactions", "arena_bytes"}
	for _, c := range []struct {
		name  string
		block any
		want  []string
	}{
		{"/stats solver", stats["solver"], totals},
		{"/stats prepare", stats["prepare"], totals},
		{"/sample stats", sample["stats"], []string{"rounds", "samples", "failures", "bsat_calls",
			"conflicts", "propagations", "xor_rows"}},
	} {
		obj, ok := c.block.(map[string]any)
		if !ok {
			t.Fatalf("%s: not a JSON object: %v", c.name, c.block)
		}
		if got, want := slices.Sorted(maps.Keys(obj)), slices.Sorted(slices.Values(c.want)); !slices.Equal(got, want) {
			t.Fatalf("%s keys %v, want %v", c.name, got, want)
		}
	}
}

func TestHTTPCountAndStats(t *testing.T) {
	ts, _ := newHTTPServer(t)
	resp := postJSON(t, ts.URL+"/count", service.CountHTTPRequest{Formula: "p cnf 2 1\n1 2 0\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", resp.StatusCode)
	}
	body := decode[service.CountHTTPResponse](t, resp)
	if body.Count != "3" || !body.Exact {
		t.Fatalf("count %q exact=%v, want exactly 3", body.Count, body.Exact)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	stats := decode[service.StatsHTTPResponse](t, sresp)
	if stats.Misses != 1 || stats.Size != 1 || len(stats.Formulas) != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if got := stats.Formulas[0]; got.Counts != 1 || !got.EasyCase {
		t.Fatalf("per-formula stats %+v", got)
	}
}

// TestHTTPStatsHashSet pins the per-formula hash-set keys of /stats on
// a formula whose declared set prunes: all 12 variables declared,
// x11 = x1 ⊕ x2 and x12 = x3 ∧ x4, so hashing runs over 10 of them.
func TestHTTPStatsHashSet(t *testing.T) {
	ts, _ := newHTTPServer(t)
	var sb strings.Builder
	if err := cnf.WriteDIMACS(&sb, prunedFormula()); err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts.URL+"/count", service.CountHTTPRequest{Formula: sb.String()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	stats := decode[struct {
		Formulas []map[string]any `json:"formulas"`
	}](t, sresp)
	if len(stats.Formulas) != 1 {
		t.Fatalf("%d formulas in /stats", len(stats.Formulas))
	}
	fs := stats.Formulas[0]
	if fs["sampling_vars"] != 12.0 || fs["hash_vars"] != 10.0 {
		t.Fatalf("formula entry %v: want sampling_vars 12, hash_vars 10", fs)
	}
	if q, ok := fs["q"].(float64); !ok || q < 1 || q > 10 {
		t.Fatalf("formula entry %v: want 1 ≤ q ≤ 10", fs)
	}
}

func TestHTTPHealthz(t *testing.T) {
	ts, _ := newHTTPServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if body := decode[service.HealthzHTTPResponse](t, resp); !body.OK || body.State != service.HealthOK {
		t.Fatalf("healthz body %+v", body)
	}
}

// TestHTTPRetryAfterSubSecondClamp: a sub-second RetryAfter config must
// not truncate to "Retry-After: 0" (which clients read as "retry
// immediately" — exactly wrong for backpressure). The header is whole
// seconds, clamped to at least 1.
func TestHTTPRetryAfterSubSecondClamp(t *testing.T) {
	svc, err := service.New(service.Config{RetryAfter: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)

	// Drain so /healthz answers 503 with the Retry-After hint attached.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", ra)
	}
	if secs < 1 {
		t.Fatalf("Retry-After %d: sub-second config truncated below 1s", secs)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newHTTPServer(t)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/sample", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Malformed DIMACS.
	resp = postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: "p cnf oops\n", N: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed DIMACS: status %d, want 400", resp.StatusCode)
	}

	// Non-positive n.
	resp = postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: "p cnf 1 1\n1 0\n", N: 0})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("n=0: status %d, want 422", resp.StatusCode)
	}

	// Unsatisfiable formula.
	resp = postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: "p cnf 1 2\n1 0\n-1 0\n", N: 1, Seed: 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsat: status %d, want 422", resp.StatusCode)
	}

	// Wrong methods.
	for _, path := range []string{"/sample", "/count"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	presp := postJSON(t, ts.URL+"/healthz", map[string]int{})
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d, want 405", presp.StatusCode)
	}
}
