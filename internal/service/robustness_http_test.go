package service_test

// HTTP status matrix under stress: each overload-safety error class
// must surface as its contracted status code — 429 shed (+Retry-After),
// 503 draining / server deadline, 422 client timeout, 413 oversized
// body, 500 recovered panic — and /healthz and /stats must expose the
// degradation. Faultpoints are process-global: no t.Parallel here.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unigen/internal/faultpoint"
	"unigen/internal/service"
)

func newRobustServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

// warmHTTP prepares hardDIMACS through the HTTP path so later faults
// land mid-sampling rather than mid-preparation.
func warmHTTP(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 1, "seed": 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", resp.StatusCode)
	}
}

func TestHTTPOverloadShed429(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ts, svc := newRobustServer(t, service.Config{MaxInFlight: 1, MaxQueue: 0})
	warmHTTP(t, ts)
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})

	// Occupy the only slot with a stalled request, cancellable from here.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(map[string]any{"formula": hardDIMACS, "n": 1, "seed": 2})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sample", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	stalled := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		stalled <- err
	}()
	waitInFlight(t, svc, 1)
	hits := svc.Stats().Hits

	// A memo hit: shedding it must still count no cache hit.
	mustMemoHold(t, svc, hardDIMACS)
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 1, "seed": 3})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if got := svc.Stats().Hits; got != hits {
		t.Fatalf("the shed request moved cache hits from %d to %d", hits, got)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "overloaded") {
		t.Fatalf("429 body: err=%v error=%q", err, e.Error)
	}

	st := decode[service.StatsHTTPResponse](t, getOK(t, ts.URL+"/stats"))
	if st.Admission.Shed == 0 || st.Outcomes.Shed == 0 {
		t.Fatalf("/stats after shed: admission=%+v outcomes=%+v", st.Admission, st.Outcomes)
	}

	cancel()
	<-stalled
}

func TestHTTPTenantQuota429(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ts, svc := newRobustServer(t, service.Config{MaxInFlight: 4, TenantQuota: 1})
	warmHTTP(t, ts)
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(map[string]any{"formula": hardDIMACS, "n": 1, "seed": 2, "tenant": "acme"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sample", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	stalled := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(stalled)
	}()
	waitInFlight(t, svc, 1)

	// Same tenant via the header fallback: over quota.
	body2, _ := json.Marshal(map[string]any{"formula": hardDIMACS, "n": 1, "seed": 3})
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/sample", bytes.NewReader(body2))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(service.TenantHeader, "acme")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota tenant request: status %d, want 429", resp2.StatusCode)
	}

	cancel()
	<-stalled
}

func TestHTTPServerDeadline503(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ts, _ := newRobustServer(t, service.Config{DefaultTimeout: 2 * time.Second})
	warmHTTP(t, ts)
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 5, "seed": 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-struck request: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPClientTimeout422(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ts, _ := newRobustServer(t, service.Config{})
	warmHTTP(t, ts)
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": hardDIMACS, "n": 5, "seed": 2, "timeout_ms": 150})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("client-timeout request: status %d, want 422", resp.StatusCode)
	}
}

func TestHTTPBodyTooLarge413(t *testing.T) {
	ts, _ := newRobustServer(t, service.Config{MaxBodyBytes: 256})
	big := map[string]any{"formula": "p cnf 1 1\n1 0\nc " + strings.Repeat("x", 1024), "n": 1, "seed": 1}
	resp := postJSON(t, ts.URL+"/sample", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body: err=%v error=%q (want a structured error)", err, e.Error)
	}
	// A body under the cap still works.
	small := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 1, "seed": 1})
	defer small.Body.Close()
	if small.StatusCode != http.StatusOK {
		t.Fatalf("small body after 413: status %d", small.StatusCode)
	}
}

func TestHTTPPanic500(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	ts, svc := newRobustServer(t, service.Config{})
	faultpoint.Arm(faultpoint.RequestPanic, faultpoint.Fault{Panic: "injected", Count: 1})
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 1, "seed": 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", resp.StatusCode)
	}
	if svc.Stats().Outcomes.Panic != 1 {
		t.Fatalf("outcomes %+v, want 1 panic", svc.Stats().Outcomes)
	}
	// Fault exhausted: the very next request succeeds.
	again := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 1, "seed": 1})
	defer again.Body.Close()
	if again.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d", again.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	ts, svc := newRobustServer(t, service.Config{})
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 1, "seed": 1})
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Body.Close()
	if h.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: status %d, want 503", h.StatusCode)
	}
	hz := decode[service.HealthzHTTPResponse](t, h)
	if hz.OK || hz.State != service.HealthDraining {
		t.Fatalf("draining /healthz body %+v", hz)
	}

	s := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 1, "seed": 1})
	defer s.Body.Close()
	if s.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /sample: status %d, want 503", s.StatusCode)
	}
	if ra := s.Header.Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
}

// TestHTTPStatsOverloadBlocks: the /stats payload carries the admission
// gate, outcome totals, and health state alongside the cache counters.
func TestHTTPStatsOverloadBlocks(t *testing.T) {
	ts, _ := newRobustServer(t, service.Config{MaxInFlight: 3, MaxQueue: 5})
	resp := postJSON(t, ts.URL+"/sample", map[string]any{"formula": "p cnf 1 1\n1 0\n", "n": 2, "seed": 1})
	resp.Body.Close()
	st := decode[service.StatsHTTPResponse](t, getOK(t, ts.URL+"/stats"))
	if st.Admission.Capacity != 3 || st.Admission.QueueCapacity != 5 {
		t.Fatalf("admission block %+v, want capacity 3 / queue 5", st.Admission)
	}
	if st.Outcomes.OK != 1 {
		t.Fatalf("outcomes block %+v, want 1 ok", st.Outcomes)
	}
	if st.State != service.HealthOK {
		t.Fatalf("state %q, want ok", st.State)
	}
	if st.Misses != 1 {
		t.Fatalf("cache counters lost: %+v", st)
	}
}

func getOK(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp
}
