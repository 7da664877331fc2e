package service_test

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/faultpoint"
	"unigen/internal/service"
)

// conjoined mirrors the delta semantics in test space: the formula a
// client would post wholesale to get base ∧ assumptions.
func conjoined(f *cnf.Formula, assumps ...int) *cnf.Formula {
	g := f.Clone()
	for _, l := range assumps {
		g.AddClause(l)
	}
	return g
}

// prunedFormula declares all 12 variables, but x11 = x1 ⊕ x2 and
// x12 = x3 ∧ x4: the hash set is x2..x11 (1024 witnesses).
func prunedFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(-11, 1, 2)
	f.AddClause(-11, -1, -2)
	f.AddClause(11, -1, 2)
	f.AddClause(11, 1, -2)
	f.AddClause(-12, 3)
	f.AddClause(-12, 4)
	f.AddClause(12, -3, -4)
	return f
}

// formulaStats returns svc's /stats entry for fingerprint fp.
func formulaStats(t *testing.T, svc *service.Service, fp string) service.FormulaStats {
	t.Helper()
	for _, fs := range svc.Stats().Formulas {
		if fs.Fingerprint == fp {
			return fs
		}
	}
	t.Fatalf("no /stats entry for %s", fp)
	return service.FormulaStats{}
}

// prepareBase warms svc's cache with f and returns its fingerprint.
func prepareBase(t *testing.T, svc *service.Service, f *cnf.Formula) string {
	t.Helper()
	res, err := svc.Sample(context.Background(), service.SampleRequest{Formula: f.Clone(), N: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint
}

// TestDeltaBitIdenticalToColdConjoined is the differential contract of
// DESIGN §13: for the same seed, a delta request served from pooled
// warm sessions over the base must return witnesses bit-identical to a
// cold prepare of the conjoined formula on a fresh service — in both
// conditioned regimes (hashing: the conditioned space is still above
// hiThresh; easy: the assumptions shrink it below) — and on a base
// whose hash set is smaller than its sampling set, where both paths
// must also derive the same conditioned hash set.
func TestDeltaBitIdenticalToColdConjoined(t *testing.T) {
	cases := []struct {
		name    string
		base    func() *cnf.Formula
		assumps []int
	}{
		// 1024-witness base over 10 sampling vars; hiThresh(ε=6) = 64.
		{"hashing", hardFormula, []int{1, -2}},        // 2^8 = 256 conditioned witnesses
		{"easy", hardFormula, []int{1, -2, 3, -4, 5}}, // 2^5 = 32 conditioned witnesses
		// The unit on x1 keeps it in the conditioned hash set, which
		// drops x2 instead: rows run over a set the pooled base
		// sessions do not block on. 2^8 conditioned witnesses.
		{"pruned", prunedFormula, []int{1, -5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warm := newService(t, service.Config{})
			base := tc.base()
			baseFP := prepareBase(t, warm, base)

			const seed, n = 1234, 6
			delta, err := warm.Sample(context.Background(), service.SampleRequest{
				Base: baseFP, Assumptions: tc.assumps, N: n, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !delta.Delta {
				t.Fatal("delta request not flagged Delta in the result")
			}

			cold := newService(t, service.Config{})
			conj, err := cold.Sample(context.Background(), service.SampleRequest{
				Formula: conjoined(base, tc.assumps...), N: n, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if delta.Fingerprint != conj.Fingerprint {
				t.Fatalf("delta entry fingerprint %s, cold conjoined %s", delta.Fingerprint, conj.Fingerprint)
			}
			if got, want := projectAll(t, delta), projectAll(t, conj); !reflect.DeepEqual(got, want) {
				t.Fatalf("delta witnesses diverged from cold conjoined prepare:\n got %v\nwant %v", got, want)
			}
			ds, cs := formulaStats(t, warm, delta.Fingerprint), formulaStats(t, cold, conj.Fingerprint)
			if ds.HashVars != cs.HashVars || ds.Q != cs.Q || ds.SamplingVars != cs.SamplingVars {
				t.Fatalf("delta entry %+v, cold conjoined %+v", ds, cs)
			}
			if bs := formulaStats(t, warm, baseFP); tc.name == "pruned" && bs.HashVars >= bs.SamplingVars {
				t.Fatalf("base hashes over %d of %d vars, want fewer", bs.HashVars, bs.SamplingVars)
			}
			// Every witness must satisfy the assumptions (they are all on
			// sampling vars here, so the projection shows them directly).
			for _, w := range delta.Witnesses {
				for _, l := range tc.assumps {
					v, want := cnf.Var(l), l > 0
					if l < 0 {
						v = cnf.Var(-l)
					}
					if w.Get(v) != want {
						t.Fatalf("witness violates assumption %d", l)
					}
				}
			}

			// The conditioned entry is cached under the conjoined formula's
			// own fingerprint: posting the conjoined DIMACS wholesale to the
			// warm service must hit it and stay bit-identical.
			viaFormula, err := warm.Sample(context.Background(), service.SampleRequest{
				Formula: conjoined(base, tc.assumps...), N: n, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !viaFormula.CacheHit {
				t.Fatal("conjoined formula request missed the delta entry it should share")
			}
			if !reflect.DeepEqual(projectAll(t, viaFormula), projectAll(t, delta)) {
				t.Fatal("formula-shaped request diverged from the delta entry's witnesses")
			}
		})
	}
}

// TestDeltaCount pins the /count side: a delta count equals the count
// of the conjoined formula, exact in the easy conditioned regime.
func TestDeltaCount(t *testing.T) {
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	res, err := svc.Count(context.Background(), service.CountRequest{
		Base: baseFP, Assumptions: []int{1, -2, 3, -4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delta || !res.Exact || res.Count.Int64() != 32 {
		t.Fatalf("delta count %v exact=%v delta=%v, want exactly 32", res.Count, res.Exact, res.Delta)
	}
}

// TestDeltaEmptyAssumptions: a fingerprint-only request serves the base
// entry itself — sample-by-fingerprint, no formula re-post.
func TestDeltaEmptyAssumptions(t *testing.T) {
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	byFP, err := svc.Sample(context.Background(), service.SampleRequest{Base: baseFP, N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byFormula, err := svc.Sample(context.Background(), service.SampleRequest{Formula: base.Clone(), N: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(projectAll(t, byFP), projectAll(t, byFormula)) {
		t.Fatal("sample-by-fingerprint diverged from sample-by-formula")
	}
	if byFP.Fingerprint != baseFP {
		t.Fatalf("fingerprint %s, want base %s", byFP.Fingerprint, baseFP)
	}
}

// TestDeltaUnknownBase: naming a fingerprint this service never
// prepared fails with ErrUnknownBase and is counted as such.
func TestDeltaUnknownBase(t *testing.T) {
	svc := newService(t, service.Config{})
	bogus := strings.Repeat("ab", 32)
	_, err := svc.Sample(context.Background(), service.SampleRequest{Base: bogus, Assumptions: []int{1}, N: 1, Seed: 1})
	if !errors.Is(err, service.ErrUnknownBase) {
		t.Fatalf("err = %v, want ErrUnknownBase", err)
	}
	if st := svc.Stats(); st.Delta.UnknownBase != 1 || st.Delta.Requests != 1 {
		t.Fatalf("delta stats %+v", st.Delta)
	}
}

// TestDeltaValidation covers the request-shape rejections.
func TestDeltaValidation(t *testing.T) {
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	cases := []struct {
		name string
		req  service.SampleRequest
	}{
		{"formula and base", service.SampleRequest{Formula: hardFormula(), Base: baseFP, N: 1, Seed: 1}},
		{"assumptions without base", service.SampleRequest{Formula: hardFormula(), Assumptions: []int{1}, N: 1, Seed: 1}},
		{"zero literal", service.SampleRequest{Base: baseFP, Assumptions: []int{1, 0}, N: 1, Seed: 1}},
		{"bad hex", service.SampleRequest{Base: "not-hex", Assumptions: []int{1}, N: 1, Seed: 1}},
		{"short fingerprint", service.SampleRequest{Base: "abcd", Assumptions: []int{1}, N: 1, Seed: 1}},
		{"out-of-range literal", service.SampleRequest{Base: baseFP, Assumptions: []int{13}, N: 1, Seed: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := svc.Sample(context.Background(), tc.req); !errors.Is(err, service.ErrInvalidRequest) {
				t.Fatalf("err = %v, want ErrInvalidRequest", err)
			}
		})
	}
}

// TestDeltaPoolReuse: repeated delta requests for one base must reuse
// pooled sessions (hits, idle ≥ 1 at rest) instead of building a
// solver per request, and the cache must list the delta entry with its
// base attribution.
func TestDeltaPoolReuse(t *testing.T) {
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	var first []string
	for i := 0; i < 4; i++ {
		res, err := svc.Sample(context.Background(), service.SampleRequest{
			Base: baseFP, Assumptions: []int{1, -2}, N: 3, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := projectAll(t, res)
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("request %d diverged across pooled-session reuse", i)
		}
	}
	st := svc.Stats()
	if st.Delta.Served != 4 || st.Delta.Requests != 4 {
		t.Fatalf("delta stats %+v, want 4 served", st.Delta)
	}
	// Flight enumeration + 3 warm requests after the first: the pool
	// must have produced real hits, and the sessions return to idle.
	if st.Delta.PoolHits < 3 {
		t.Fatalf("pool hits %d, want ≥ 3 (sessions rebuilt instead of reused?)", st.Delta.PoolHits)
	}
	if st.Delta.PoolIdle < 1 {
		t.Fatalf("pool idle %d, want ≥ 1", st.Delta.PoolIdle)
	}
	var entry *service.FormulaStats
	for i := range st.Formulas {
		if st.Formulas[i].Delta {
			entry = &st.Formulas[i]
		}
	}
	if entry == nil || entry.Base != baseFP {
		t.Fatalf("no delta cache entry attributed to base %s (formulas %+v)", baseFP, st.Formulas)
	}
}

// TestDeltaDivergedPromotion: with a negative window every non-easy
// conditioned setup is promoted to a first-class entry — no base pool
// affinity, no base attribution — and stays bit-identical regardless.
func TestDeltaDivergedPromotion(t *testing.T) {
	svc := newService(t, service.Config{DeltaQWindow: -1})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	const seed, n = 55, 4
	res, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: n, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Delta.Diverged != 1 {
		t.Fatalf("diverged count %d, want 1", st.Delta.Diverged)
	}
	for _, fs := range st.Formulas {
		if fs.Delta && fs.Base != "" {
			t.Fatalf("promoted delta entry still attributed to base: %+v", fs)
		}
	}
	cold := newService(t, service.Config{})
	conj, err := cold.Sample(context.Background(), service.SampleRequest{
		Formula: conjoined(base, 1, -2), N: n, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(projectAll(t, res), projectAll(t, conj)) {
		t.Fatal("promoted delta witnesses diverged from cold conjoined prepare")
	}
}

// TestChaosDeltaPooledSessionHygiene is the pooled-session bugfix
// regression: a delta request whose conditioned preparation is stalled
// (SolverStall) and abandoned at its client deadline leaves behind a
// checked-in session with a raised interrupt flag. The next delta
// request on the same base must serve normally from that same session
// — check-in hygiene lowers the flag, clears the assumptions, and
// resets the budgets — and stay bit-identical to a cold prepare.
func TestChaosDeltaPooledSessionHygiene(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	_, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: 2, Seed: 5,
		Timeout: 100 * time.Millisecond,
	})
	if !errors.Is(err, service.ErrClientTimeout) {
		t.Fatalf("stalled delta request: err = %v, want ErrClientTimeout", err)
	}
	faultpoint.Reset()

	const seed, n = 77, 4
	res, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: n, Seed: seed,
	})
	if err != nil {
		t.Fatalf("delta request after stalled predecessor: %v", err)
	}
	st := svc.Stats()
	if st.Delta.PoolHits < 1 {
		t.Fatalf("pool hits %d: the interrupted session was not reused", st.Delta.PoolHits)
	}
	cold := newService(t, service.Config{})
	conj, err := cold.Sample(context.Background(), service.SampleRequest{
		Formula: conjoined(base, 1, -2), N: n, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(projectAll(t, res), projectAll(t, conj)) {
		t.Fatal("post-stall delta witnesses diverged from cold conjoined prepare")
	}
}

// TestChaosDeltaRoundPanicRetiresSession: a sampling round that panics
// on a pooled session dooms it; check-in retires the session instead
// of re-pooling solver state of unknown integrity, and the next
// request serves normally on a fresh one.
func TestChaosDeltaRoundPanicRetiresSession(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	svc := newService(t, service.Config{})
	base := hardFormula()
	baseFP := prepareBase(t, svc, base)

	// Warm the conditioned entry so the fault fires in a sampling round
	// on a pooled session, not inside the preparation flight.
	if _, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: 1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	retiredBefore := svc.Stats().Delta.PoolRetired

	faultpoint.Arm(faultpoint.RoundPanic, faultpoint.Fault{Panic: "injected round crash", Count: 1})
	if _, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: 2, Seed: 2,
	}); err == nil {
		t.Fatal("round panic did not fail the request")
	}
	faultpoint.Reset()

	st := svc.Stats()
	if st.Delta.PoolRetired <= retiredBefore {
		t.Fatalf("pool retired %d → %d: panicked session was re-pooled", retiredBefore, st.Delta.PoolRetired)
	}
	if _, err := svc.Sample(context.Background(), service.SampleRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: 2, Seed: 3,
	}); err != nil {
		t.Fatalf("delta request after retirement: %v", err)
	}
}

// TestHTTPDelta exercises the delta request shape end to end over the
// HTTP transport: warm the base, sample and count by base fingerprint,
// verify the conjoined-formula equivalence, and the 404 for an unknown
// base.
func TestHTTPDelta(t *testing.T) {
	ts, svc := newHTTPServer(t)

	warm := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: hardDIMACS, N: 1, Seed: 1})
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d", warm.StatusCode)
	}
	baseFP := decode[service.SampleHTTPResponse](t, warm).Fingerprint

	dresp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{
		Base: baseFP, Assumptions: []int{1, -2}, N: 3, Seed: 21,
	})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta sample status %d", dresp.StatusCode)
	}
	dbody := decode[service.SampleHTTPResponse](t, dresp)
	if !dbody.Delta || len(dbody.Witnesses) != 3 {
		t.Fatalf("delta sample body %+v", dbody)
	}

	// The conjoined DIMACS text posted wholesale must hit the same
	// entry and return the same witnesses.
	conjDIMACS := "c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 3\n11 12 0\n1 0\n-2 0\n"
	fresp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{Formula: conjDIMACS, N: 3, Seed: 21})
	fbody := decode[service.SampleHTTPResponse](t, fresp)
	if !fbody.CacheHit || fbody.Fingerprint != dbody.Fingerprint {
		t.Fatalf("conjoined formula request: hit=%v fp=%s, want hit of %s", fbody.CacheHit, fbody.Fingerprint, dbody.Fingerprint)
	}
	if !reflect.DeepEqual(fbody.Witnesses, dbody.Witnesses) {
		t.Fatal("conjoined formula witnesses diverged from delta witnesses over HTTP")
	}

	cresp := postJSON(t, ts.URL+"/count", service.CountHTTPRequest{Base: baseFP, Assumptions: []int{1, -2, 3, -4, 5}})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("delta count status %d", cresp.StatusCode)
	}
	cbody := decode[service.CountHTTPResponse](t, cresp)
	if !cbody.Delta || cbody.Count != "32" || !cbody.Exact {
		t.Fatalf("delta count body %+v, want exact 32", cbody)
	}

	// Unknown base → 404.
	uresp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{
		Base: strings.Repeat("cd", 32), Assumptions: []int{1}, N: 1, Seed: 1,
	})
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown base status %d, want 404", uresp.StatusCode)
	}

	// Both formula and base → 422.
	bresp := postJSON(t, ts.URL+"/sample", service.SampleHTTPRequest{
		Formula: hardDIMACS, Base: baseFP, N: 1, Seed: 1,
	})
	if bresp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("formula+base status %d, want 422", bresp.StatusCode)
	}

	// The /stats delta block reflects the traffic.
	st := svc.Stats()
	if st.Delta.Served < 2 || st.Delta.UnknownBase != 1 {
		t.Fatalf("delta stats %+v", st.Delta)
	}
}
