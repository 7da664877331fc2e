package service_test

import (
	"context"
	"encoding/json"
	"math/big"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/counter"
	"unigen/internal/faultpoint"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/service"
)

// Preparation stops ApproxMC once q is settled (DESIGN §15); the first
// /count of an entry runs the rounds left. These tests pin that the
// count is still the full run's, on every path an entry can reach a
// count by, that the rounds run once, and that a failed first count
// caches nothing.

// fullCount is counter.ApproxMC over f's sampling set (its hash set,
// for the fixtures here) with f's preparation seed: the estimate a
// setup that ran every round holds.
func fullCount(t *testing.T, f *cnf.Formula) *big.Int {
	t.Helper()
	res, err := counter.ApproxMC(f, randx.New(core.PrepSeed(f, nil)), counter.ApproxMCOptions{Epsilon: 0.8, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// deferredRounds returns the "rounds" counter of tr's approxmc span —
// the rounds a count ran for its setup — or -1 when it has none.
func deferredRounds(tr *obs.Trace) int64 { return approxmcCounter(tr, "rounds") }

// approxmcCounter returns the named counter of tr's approxmc span, -1
// when there is no such span.
func approxmcCounter(tr *obs.Trace, name string) int64 {
	for _, c := range tr.Snapshot().Children {
		if c.Name == "approxmc" {
			return c.Counters[name]
		}
	}
	return -1
}

// countTraced runs req on svc under a trace of its own and returns the
// result with the rounds its approxmc span reports and the sessions
// they ran on (-1 each: no span).
func countTraced(t *testing.T, svc *service.Service, req service.CountRequest) (*service.CountResult, int64, int64) {
	t.Helper()
	tr := obs.NewTrace()
	res, err := svc.Count(obs.WithTrace(context.Background(), tr), req)
	if err != nil {
		t.Fatal(err)
	}
	return res, deferredRounds(tr), approxmcCounter(tr, "sessions")
}

// TestCountFinishesDeferredRounds: after a settled setup, /count
// equals counter.ApproxMC with the preparation seed — cold, through a
// delta whose setup ran on a pooled session, and after a warm restart
// from a frame written before any count. The first count of each runs
// the deferred rounds, under one span that also reports the sessions
// they ran on, at most GOMAXPROCS; the second runs none.
func TestCountFinishesDeferredRounds(t *testing.T) {
	check := func(name string, svc *service.Service, req service.CountRequest, want *big.Int) {
		t.Helper()
		res, rounds, sessions := countTraced(t, svc, req)
		if res.Count.Cmp(want) != 0 || res.Exact {
			t.Fatalf("%s: count %v exact=%v, want the full run's %v", name, res.Count, res.Exact, want)
		}
		if rounds <= 0 || sessions < 1 || sessions > int64(runtime.GOMAXPROCS(0)) {
			t.Fatalf("%s: first count ran %d deferred rounds on %d sessions, want some on 1..%d", name, rounds, sessions, runtime.GOMAXPROCS(0))
		}
		res, rounds, _ = countTraced(t, svc, req)
		if res.Count.Cmp(want) != 0 || rounds != -1 {
			t.Fatalf("%s: second count %v with approxmc rounds %d, want %v with no span", name, res.Count, rounds, want)
		}
	}

	t.Run("cold", func(t *testing.T) {
		svc := newService(t, service.Config{})
		prepareBase(t, svc, hardFormula())
		check("cold", svc, service.CountRequest{Formula: hardFormula()}, fullCount(t, hardFormula()))
	})

	t.Run("delta", func(t *testing.T) {
		svc := newService(t, service.Config{})
		baseFP := prepareBase(t, svc, hardFormula())
		req := service.SampleRequest{Base: baseFP, Assumptions: []int{1, -2}, N: 1, Seed: 3}
		if res, err := svc.Sample(context.Background(), req); err != nil || !res.Delta {
			t.Fatalf("delta prepare: %v", err)
		}
		if st := svc.Stats().Delta; st.PoolMisses+st.PoolHits == 0 {
			t.Fatalf("conditioned setup ran on no pooled session: %+v", st)
		}
		check("delta", svc, service.CountRequest{Base: baseFP, Assumptions: []int{1, -2}},
			fullCount(t, conjoined(hardFormula(), 1, -2)))
	})

	t.Run("warm restart", func(t *testing.T) {
		dir := t.TempDir()
		svc1 := newService(t, service.Config{StoreDir: dir})
		prepareBase(t, svc1, hardFormula())
		closeSvc(t, svc1) // persists the frame; no count has run
		svc2 := newService(t, service.Config{StoreDir: dir})
		t.Cleanup(func() { closeSvc(t, svc2) })
		check("warm restart", svc2, service.CountRequest{Formula: hardFormula()}, fullCount(t, hardFormula()))
		if st := svc2.Stats().Store; st.Hits != 1 {
			t.Fatalf("restarted service store stats %+v, want one disk hit", st)
		}
	})
}

// TestCountConcurrentFirst: eight concurrent first counts of one entry
// return one value, and exactly one of them runs the deferred rounds.
func TestCountConcurrentFirst(t *testing.T) {
	svc := newService(t, service.Config{})
	prepareBase(t, svc, hardFormula())
	const n = 8
	counts := make([]*big.Int, n)
	rounds := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := obs.NewTrace()
			res, err := svc.Count(obs.WithTrace(context.Background(), tr), service.CountRequest{Formula: hardFormula()})
			if errs[i] = err; err == nil {
				counts[i], rounds[i] = res.Count, deferredRounds(tr)
			}
		}()
	}
	wg.Wait()
	ran := 0
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("count %d: %v", i, errs[i])
		}
		if counts[i].Cmp(counts[0]) != 0 {
			t.Fatalf("counts %v and %v differ", counts[0], counts[i])
		}
		if rounds[i] >= 0 {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("%d of %d counts ran the deferred rounds, want 1", ran, n)
	}
	if want := fullCount(t, hardFormula()); counts[0].Cmp(want) != 0 {
		t.Fatalf("count %v, full run %v", counts[0], want)
	}
}

// TestCountCancelledFirst: a first count whose deadline fires while the
// deferred rounds run (a solver stall after their first probe, on every
// session the rounds run on) fails
// through the HTTP error mapping — 503 for the server's deadline, 422
// for the client's — and caches nothing: the next count runs every
// deferred round again and returns the full estimate.
func TestCountCancelledFirst(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	text := cnf.DIMACSString(hardFormula())
	want := fullCount(t, hardFormula())
	for _, tc := range []struct {
		name   string
		cfg    service.Config
		req    service.CountHTTPRequest
		status int
	}{
		{"server deadline", service.Config{DefaultTimeout: time.Second}, service.CountHTTPRequest{Formula: text}, http.StatusServiceUnavailable},
		{"client timeout", service.Config{}, service.CountHTTPRequest{Formula: text, TimeoutMS: 100}, http.StatusUnprocessableEntity},
	} {
		faultpoint.Reset()
		h, svc := memoHandler(t, tc.cfg)
		prepareBase(t, svc, hardFormula())
		faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute, Skip: 1})
		if code, body := serve(h, "/count", tc.req); code != tc.status {
			t.Fatalf("%s: first count status %d (%s), want %d", tc.name, code, body, tc.status)
		}
		// Each round in flight stalls at its next probe: one per session.
		if n := faultpoint.Fired(faultpoint.SolverStall); n < 1 || n > int64(runtime.GOMAXPROCS(0)) {
			t.Fatalf("%s: the stall fired %d times, want once per session, at most %d", tc.name, n, runtime.GOMAXPROCS(0))
		}
		faultpoint.Reset()

		res, rounds, _ := countTraced(t, svc, service.CountRequest{Formula: hardFormula()})
		if res.Count.Cmp(want) != 0 || rounds <= 0 {
			t.Fatalf("%s: next count %v after %d deferred rounds, want %v after some", tc.name, res.Count, rounds, want)
		}
		code, body := serve(h, "/count", service.CountHTTPRequest{Formula: text})
		var cr service.CountHTTPResponse
		if code != http.StatusOK || json.Unmarshal(body, &cr) != nil || cr.Count != want.String() {
			t.Fatalf("%s: HTTP count status %d body %s, want %v", tc.name, code, body, want)
		}
	}
}
