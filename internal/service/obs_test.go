package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unigen/internal/obs"
	"unigen/internal/service"
)

// scrape fetches /metrics and runs the strict exposition parser over
// it, so every scrape in the test suite re-validates the grammar.
func scrape(t *testing.T, base string) []obs.ExpositionFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(string(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	return fams
}

func mustValue(t *testing.T, fams []obs.ExpositionFamily, family, series string, pairs ...string) float64 {
	t.Helper()
	v, ok := obs.SeriesValue(obs.Find(fams, family), series, pairs...)
	if !ok {
		t.Fatalf("series %s{%v} missing from scrape", series, pairs)
	}
	return v
}

// TestMetricsEndpoint is the satellite parser-roundtrip test: drive
// real traffic (a cold sample, a warm sample, a count, an invalid
// request), scrape /metrics, and assert family presence and values
// across every source — requests/outcomes, cache, phase latency,
// solver work, build identity.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newHTTPServer(t)

	for seed := uint64(1); seed <= 2; seed++ {
		resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 2, Seed: seed})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sample status %d", resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/count", service.CountHTTPRequest{Formula: hardDIMACS}); resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d", resp.StatusCode)
	}
	// Invalid: n must be positive.
	if resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: -1}); resp.StatusCode == http.StatusOK {
		t.Fatal("invalid request succeeded")
	}

	fams := scrape(t, ts.URL)

	if got := mustValue(t, fams, "unigen_requests_total", "unigen_requests_total", "endpoint", "sample", "outcome", "ok"); got != 2 {
		t.Fatalf("sample/ok = %v, want 2", got)
	}
	if got := mustValue(t, fams, "unigen_requests_total", "unigen_requests_total", "endpoint", "count", "outcome", "ok"); got != 1 {
		t.Fatalf("count/ok = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_requests_total", "unigen_requests_total", "endpoint", "sample", "outcome", "invalid"); got != 1 {
		t.Fatalf("sample/invalid = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_witnesses_total", "unigen_witnesses_total"); got != 4 {
		t.Fatalf("witnesses = %v, want 4", got)
	}
	// Every /stats outcome is its unigen_requests_total series summed
	// over the endpoints.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Outcomes map[string]float64 `json:"outcomes"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&st)
	sresp.Body.Close()
	if err != nil || len(st.Outcomes) != 9 {
		t.Fatalf("/stats outcomes %v (%v), want 9 outcomes", st.Outcomes, err)
	}
	for name, v := range st.Outcomes {
		var sum float64
		for _, s := range obs.Find(fams, "unigen_requests_total").Series {
			if s.Labels["outcome"] == name {
				sum += s.Value
			}
		}
		if sum != v {
			t.Fatalf("/stats outcome %s = %v, unigen_requests_total sums to %v", name, v, sum)
		}
	}

	// Cache: one miss (first sample prepared), two hits (second sample,
	// count).
	if got := mustValue(t, fams, "unigen_cache_requests_total", "unigen_cache_requests_total", "result", "miss"); got != 1 {
		t.Fatalf("cache misses = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_cache_requests_total", "unigen_cache_requests_total", "result", "hit"); got != 2 {
		t.Fatalf("cache hits = %v, want 2", got)
	}
	if got := mustValue(t, fams, "unigen_cache_size", "unigen_cache_size"); got != 1 {
		t.Fatalf("cache size = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_prepare_flights_total", "unigen_prepare_flights_total", "result", "ok"); got != 1 {
		t.Fatalf("prepare flights ok = %v, want 1", got)
	}

	// Latency histograms: two finished sample requests, one prepare
	// flight, two rounds phases.
	if got := mustValue(t, fams, "unigen_request_seconds", "unigen_request_seconds_count", "endpoint", "sample"); got != 3 {
		t.Fatalf("request_seconds count (sample) = %v, want 3", got)
	}
	if got := mustValue(t, fams, "unigen_phase_seconds", "unigen_phase_seconds_count", "phase", "prepare"); got != 1 {
		t.Fatalf("phase_seconds prepare count = %v, want 1", got)
	}
	if got := mustValue(t, fams, "unigen_phase_seconds", "unigen_phase_seconds_count", "phase", "rounds"); got != 2 {
		t.Fatalf("phase_seconds rounds count = %v, want 2", got)
	}

	// Solver work: both phases must have counted real BSAT calls, and
	// the sampling phase real rounds.
	if got := mustValue(t, fams, "unigen_solver_bsat_calls_total", "unigen_solver_bsat_calls_total", "phase", "sample"); got <= 0 {
		t.Fatalf("sample-phase bsat calls = %v, want > 0", got)
	}
	if got := mustValue(t, fams, "unigen_solver_bsat_calls_total", "unigen_solver_bsat_calls_total", "phase", "prepare"); got <= 0 {
		t.Fatalf("prepare-phase bsat calls = %v, want > 0", got)
	}
	if got := mustValue(t, fams, "unigen_sampling_rounds_total", "unigen_sampling_rounds_total", "phase", "sample"); got < 4 {
		t.Fatalf("sampling rounds = %v, want ≥ 4", got)
	}
	if got := mustValue(t, fams, "unigen_solver_xor_rows_total", "unigen_solver_xor_rows_total", "phase", "sample"); got <= 0 {
		t.Fatalf("sample-phase xor rows = %v, want > 0", got)
	}
	// The solver-work family set is exact: every kept family is present
	// for both phases, and the retired inprocessing/CDCL-heuristic
	// families (always zero while their knobs existed) stay gone.
	for _, fam := range []struct {
		name    string
		present bool
	}{
		{"unigen_solver_bsat_calls_total", true},
		{"unigen_solver_conflicts_total", true},
		{"unigen_solver_propagations_total", true},
		{"unigen_solver_xor_rows_total", true},
		{"unigen_solver_learned_total", true},
		{"unigen_solver_removed_total", true},
		{"unigen_solver_compactions_total", true},
		{"unigen_solver_arena_bytes", true},
		{"unigen_sampling_rounds_total", true},
		{"unigen_solver_vivified_literals_total", false},
		{"unigen_solver_subsumed_learnts_total", false},
		{"unigen_solver_probed_literals_total", false},
		{"unigen_solver_failed_literals_total", false},
		{"unigen_solver_rephases_total", false},
		{"unigen_solver_chrono_backtracks_total", false},
	} {
		if !fam.present {
			if obs.Find(fams, fam.name) != nil {
				t.Errorf("retired family %s still exported", fam.name)
			}
			continue
		}
		for _, phase := range []string{"sample", "prepare"} {
			mustValue(t, fams, fam.name, fam.name, "phase", phase)
		}
	}

	// Admission (gate off in this config: all zeros, but present).
	mustValue(t, fams, "unigen_admission_shed_total", "unigen_admission_shed_total", "reason", "queue_full")
	mustValue(t, fams, "unigen_inflight_requests", "unigen_inflight_requests")

	// Build identity and uptime.
	if got := mustValue(t, fams, "unigen_build_info", "unigen_build_info"); got != 1 {
		t.Fatalf("build_info = %v, want 1", got)
	}
	bi := obs.Find(fams, "unigen_build_info")
	if bi.Series[0].Labels["version"] == "" || bi.Series[0].Labels["go"] == "" {
		t.Fatalf("build_info labels: %+v", bi.Series[0].Labels)
	}
	if got := mustValue(t, fams, "unigen_uptime_seconds", "unigen_uptime_seconds"); got < 0 {
		t.Fatalf("uptime = %v", got)
	}
}

// TestTraceHeaderAndEcho covers the per-request tracing contract:
// every /sample response carries an X-Unigen-Trace ID matching the
// body's trace_id, and "trace": true echoes a span tree whose
// prepare and rounds children account for where the request's time
// went, with solver-counter deltas on the rounds span.
func TestTraceHeaderAndEcho(t *testing.T) {
	ts, _ := newHTTPServer(t)

	resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 3, Seed: 5, Trace: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	hdr := resp.Header.Get(service.TraceHeader)
	if hdr == "" {
		t.Fatal("no X-Unigen-Trace header")
	}
	body := decode[service.SampleHTTPResponse](t, resp)
	if body.TraceID != hdr {
		t.Fatalf("trace_id %q != header %q", body.TraceID, hdr)
	}
	if body.Trace == nil {
		t.Fatal("trace echo requested but absent")
	}
	if body.Trace.Name != "request" {
		t.Fatalf("root span %q", body.Trace.Name)
	}
	byName := map[string]*obs.SpanView{}
	for _, c := range body.Trace.Children {
		byName[c.Name] = c
	}
	prep, rounds := byName["prepare"], byName["rounds"]
	if prep == nil || rounds == nil {
		t.Fatalf("span tree missing prepare/rounds: %+v", body.Trace.Children)
	}
	if prep.Counters["cache_hit"] != 0 {
		t.Fatalf("cold request traced as cache hit: %+v", prep.Counters)
	}
	if rounds.Counters["bsat_calls"] <= 0 || rounds.Counters["rounds"] <= 0 {
		t.Fatalf("rounds span counters: %+v", rounds.Counters)
	}
	// The phase spans account for the request: both closed, inside the
	// root's duration, and the root covers their total.
	if prep.DurUS < 0 || rounds.DurUS < 0 {
		t.Fatalf("unclosed phase spans: prepare=%d rounds=%d", prep.DurUS, rounds.DurUS)
	}
	if body.Trace.DurUS < prep.DurUS || body.Trace.DurUS < rounds.DurUS {
		t.Fatalf("root %dµs shorter than a phase (prepare %d, rounds %d)", body.Trace.DurUS, prep.DurUS, rounds.DurUS)
	}
	// The engine's per-round spans nest under rounds, one per consumed
	// round, each with its solver deltas.
	if len(rounds.Children) == 0 {
		t.Fatal("no round spans under the rounds phase")
	}
	for _, r := range rounds.Children {
		if r.Name != "round" {
			t.Fatalf("unexpected child %q under rounds", r.Name)
		}
	}

	// Without "trace": true the echo stays out but the header remains.
	resp2 := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 6})
	if resp2.Header.Get(service.TraceHeader) == "" {
		t.Fatal("untraced request lost the header")
	}
	body2 := decode[service.SampleHTTPResponse](t, resp2)
	if body2.Trace != nil {
		t.Fatal("trace echoed without being requested")
	}
}

// TestTraceDeterminism pins that tracing is observational only: the
// witnesses of a traced request are bit-identical to an untraced one
// with the same (formula, seed, n).
func TestTraceDeterminism(t *testing.T) {
	ts, _ := newHTTPServer(t)
	a := decode[service.SampleHTTPResponse](t, postJSON(t, ts.URL+"/sample",
		service.SampleHTTPRequest{Formula: hardDIMACS, N: 4, Seed: 99, Trace: true}))
	b := decode[service.SampleHTTPResponse](t, postJSON(t, ts.URL+"/sample",
		service.SampleHTTPRequest{Formula: hardDIMACS, N: 4, Seed: 99}))
	for i := range a.Witnesses {
		if a.Witnesses[i] != b.Witnesses[i] {
			t.Fatalf("witness %d diverged under tracing", i)
		}
	}
}

// TestDebugRequestsRing covers the slow-request ring end to end: with
// a tiny threshold every request is "slow", so /debug/requests must
// return records (newest first) carrying outcome, fingerprint, and
// the span tree; the slow-request counter must match.
func TestDebugRequestsRing(t *testing.T) {
	svc, err := service.New(service.Config{SlowRequest: time.Nanosecond, DebugRequests: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 2, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := resp.Header.Get(service.TraceHeader)

	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var recs []obs.RequestRecord
	if err := json.NewDecoder(dresp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != want || rec.Endpoint != "sample" || rec.Outcome != "ok" {
		t.Fatalf("record %+v, want trace %s", rec, want)
	}
	if rec.Fingerprint == "" || rec.N != 2 || rec.Duration <= 0 {
		t.Fatalf("record fields %+v", rec)
	}
	if rec.Trace == nil || len(rec.Trace.Children) == 0 {
		t.Fatal("ring record lost its span tree")
	}

	fams := scrape(t, ts.URL)
	if got := mustValue(t, fams, "unigen_slow_requests_total", "unigen_slow_requests_total"); got != 1 {
		t.Fatalf("slow_requests_total = %v, want 1", got)
	}
}

// TestRingExcludesShedAndInvalid pins the ring admission policy: fast
// invalid requests never enter the ring, so client noise cannot flush
// the interesting records.
func TestRingExcludesShedAndInvalid(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: -1}); err == nil {
		t.Fatal("invalid request succeeded")
	}
	if recs := svc.DebugRequests(); len(recs) != 0 {
		t.Fatalf("invalid request entered the ring: %+v", recs)
	}
}

// TestStatsSolverTotals is the satellite /stats fix: cumulative
// solver-work totals aggregated across finished requests, with
// preparation-flight work reported separately.
func TestStatsSolverTotals(t *testing.T) {
	ts, _ := newHTTPServer(t)
	for seed := uint64(1); seed <= 2; seed++ {
		if resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 2, Seed: seed}); resp.StatusCode != http.StatusOK {
			t.Fatalf("sample status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := decode[service.StatsHTTPResponse](t, resp)
	if st.Solver.Requests != 2 {
		t.Fatalf("solver totals cover %d requests, want 2", st.Solver.Requests)
	}
	if st.Solver.BSATCalls <= 0 || st.Solver.Rounds < 4 || st.Solver.Samples != 4 {
		t.Fatalf("solver totals %+v", st.Solver)
	}
	if st.Solver.Conflicts < 0 || st.Solver.Propagations <= 0 {
		t.Fatalf("solver conflict/propagation totals %+v", st.Solver)
	}
	if st.Prepare.Requests != 1 || st.Prepare.BSATCalls <= 0 {
		t.Fatalf("prepare totals %+v (want exactly one flight with real work)", st.Prepare)
	}
}

// TestHealthzUptimeVersion covers the /healthz additions.
func TestHealthzUptimeVersion(t *testing.T) {
	ts, _ := newHTTPServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hz := decode[service.HealthzHTTPResponse](t, resp)
	if !hz.OK || hz.State != service.HealthOK {
		t.Fatalf("healthz %+v", hz)
	}
	if hz.UptimeSeconds < 0 {
		t.Fatalf("uptime %v", hz.UptimeSeconds)
	}
	if hz.Version == "" {
		t.Fatal("no version in /healthz")
	}
}

// TestSlowRequestLogText: under the text handler (unigend's default)
// the slow-request record prints its span tree readably: the names of
// the child spans, and no pointer.
func TestSlowRequestLogText(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	svc, err := service.New(service.Config{
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewTextHandler(&lockedWriter{w: &buf, mu: &mu}, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	mu.Unlock()
	if !strings.Contains(line, `msg="slow request"`) || !strings.Contains(line, "trace=") {
		t.Fatalf("first record is not a slow request with a trace: %s", line)
	}
	for _, name := range []string{"request ", "admission ", "prepare ", "rounds "} {
		if !strings.Contains(line, name) {
			t.Fatalf("trace does not name span %q: %s", strings.TrimSpace(name), line)
		}
	}
	if strings.Contains(line, "0x") {
		t.Fatalf("trace prints a pointer: %s", line)
	}
}

// TestSlowRequestLog checks the structured log contract: a request
// over the threshold logs at Warn as "slow request" with request id,
// outcome, duration, and the span breakdown; a fast request logs at
// Info without the trace attr.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lock := &lockedWriter{w: &buf, mu: &mu}
	svc, err := service.New(service.Config{
		SlowRequest: time.Nanosecond,
		Logger:      slog.New(slog.NewJSONHandler(lock, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: hardFormula(), N: 1, Seed: 1, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, line)
	}
	if rec["level"] != "WARN" || rec["msg"] != "slow request" {
		t.Fatalf("level/msg: %v/%v", rec["level"], rec["msg"])
	}
	if rec["request_id"] != res.TraceID || rec["tenant"] != "acme" || rec["outcome"] != "ok" {
		t.Fatalf("attrs: %v", rec)
	}
	if rec["fingerprint"] != res.Fingerprint {
		t.Fatalf("fingerprint %v != %v", rec["fingerprint"], res.Fingerprint)
	}
	trace, ok := rec["trace"].(map[string]any)
	if !ok {
		t.Fatalf("slow record lacks span breakdown: %v", rec)
	}
	if trace["name"] != "request" {
		t.Fatalf("trace root: %v", trace)
	}

	// A fast request (threshold disabled) logs at Info without trace.
	buf.Reset()
	svc2, err := service.New(service.Config{
		SlowRequest: -1,
		Logger:      slog.New(slog.NewJSONHandler(lock, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.Count(context.Background(), service.CountRequest{Formula: hardFormula()}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	line = buf.String()
	mu.Unlock()
	rec = nil // Unmarshal merges into a non-nil map; start clean
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, line)
	}
	if rec["level"] != "INFO" || rec["msg"] != "request" || rec["endpoint"] != "count" {
		t.Fatalf("fast request record: %v", rec)
	}
	if _, hasTrace := rec["trace"]; hasTrace {
		t.Fatal("fast request logged a span breakdown")
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestConcurrentRequestsAndScrapes hammers /sample from several
// clients while scraping /metrics and /debug/requests concurrently;
// every scrape must stay grammatically valid mid-flight. Run under
// -race, this is the data-race proof for the whole obs spine.
func TestConcurrentRequestsAndScrapes(t *testing.T) {
	svc, err := service.New(service.Config{SlowRequest: time.Nanosecond, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{
					Formula: hardDIMACS, N: 2, Seed: uint64(c*100 + i), Trace: i%2 == 0,
				})
				io.Copy(io.Discard, resp.Body)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			fams := scrape(t, ts.URL)
			if got := mustValue(t, fams, "unigen_requests_total", "unigen_requests_total", "endpoint", "sample", "outcome", "ok"); got != 20 {
				t.Fatalf("final sample/ok = %v, want 20", got)
			}
			return
		default:
			scrape(t, ts.URL)
			resp, err := http.Get(ts.URL + "/debug/requests")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}
