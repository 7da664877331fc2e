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
	"unigen/internal/faultpoint"
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

// TestHTTPStatsJSONKeys pins the JSON surface of /stats and of the
// solver counters: the exact key sets of the /stats body, of its
// "delta", "solver" and "prepare" blocks, and of the /sample "stats"
// block.
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
		{"/stats", stats, []string{"hits", "misses", "evictions", "size", "capacity", "formulas",
			"store", "admission", "outcomes", "solver", "prepare", "delta", "state"}},
		{"/stats delta", stats["delta"], []string{"requests", "served", "unknown_base",
			"pool_hits", "pool_misses", "pool_retired", "pool_idle"}},
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

// TestHTTPRetryAfterOneSecond: shed and draining responses ask the
// client to retry after one second, the header's smallest non-zero
// value ("Retry-After: 0" reads as "retry immediately", exactly wrong
// for backpressure).
func TestHTTPRetryAfterOneSecond(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	// A shed 429: a stalled request holds the only admission slot.
	ts, svc := newRobustServer(t, service.Config{MaxInFlight: 1})
	warmHTTP(t, ts)
	f, err := cnf.ParseDIMACSString(hardDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		_, _ = svc.Sample(ctx, service.SampleRequest{Formula: f, N: 1, Seed: 2})
	}()
	waitInFlight(t, svc, 1)
	shed := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 1, "seed": 3})
	if shed.StatusCode != http.StatusTooManyRequests || shed.Header.Get("Retry-After") != "1" {
		t.Fatalf("shed request: status %d, Retry-After %q; want 429 and 1", shed.StatusCode, shed.Header.Get("Retry-After"))
	}
	cancel()
	<-stalled

	// A draining /healthz on the zero Config.
	ts, svc = newHTTPServer(t)
	dctx, dcancel := context.WithTimeout(context.Background(), time.Second)
	defer dcancel()
	if err := svc.Close(dctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("draining /healthz: status %d, Retry-After %q; want 503 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestHTTPSampleRejectsServiceKnobs: the worker count and the conflict
// budget belong to the service, not to a request; a /sample body that
// names either is a bad request, like any other unknown field.
func TestHTTPSampleRejectsServiceKnobs(t *testing.T) {
	ts, _ := newHTTPServer(t)
	for _, field := range []string{"workers", "max_conflicts"} {
		resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 1, "seed": 1, field: 1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body with %q: status %d, want 400", field, resp.StatusCode)
		}
	}
}

// TestHTTPRejectsOversizedNumbers: a literal, variable count or
// sampling variable above cnf.MaxVars makes a bad formula on /sample
// and /count, before any preparation sizes an allocation from it. The
// MinInt64 literal once panicked the parser, and the middleware
// answered 500.
func TestHTTPRejectsOversizedNumbers(t *testing.T) {
	ts, svc := newHTTPServer(t)
	over := strconv.Itoa(cnf.MaxVars + 1)
	for _, text := range []string{
		"p cnf 1 1\n-9223372036854775808 0\n",
		"p cnf 1 1\n4611686018427387904 0\n",
		"p cnf 1 1\n" + over + " 0\n",
		"p cnf 2 1\nx1 -" + over + " 0\n",
		"p cnf " + over + " 0\n",
		"c ind " + over + " 0\np cnf 1 0\n",
	} {
		for path, body := range map[string]any{
			"/sample": service.SampleHTTPRequest{Formula: text, N: 1, Seed: 1},
			"/count":  service.CountHTTPRequest{Formula: text},
		} {
			if resp := postJSON(t, ts.URL+path, body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d, want 400", path, text, resp.StatusCode)
			}
		}
	}
	if st := svc.Stats(); st.Misses != 0 {
		t.Fatalf("a rejected formula reached the cache: %d misses", st.Misses)
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
