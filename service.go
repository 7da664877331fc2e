package unigen

import (
	"context"
	"math/big"
	"net/http"

	"unigen/internal/cnf"
	"unigen/internal/service"
)

// FormulaFingerprint returns the canonical fingerprint of f in hex: the
// SHA-256 of its normalized DIMACS serialization. Presentation changes
// (clause/literal order, duplicates, tautologies, sampling-set order)
// do not change the fingerprint; semantic changes do. It is the
// identity under which Service caches prepared formulas.
func FormulaFingerprint(f *Formula) string { return cnf.FingerprintString(f) }

// ServiceOptions configures an embedded sampling service: epsilon,
// budgets, worker and cache sizes, the persistent store, delta
// sessions, admission control, deadlines and observability. The zero
// value is usable: ε = 6, one worker per request, 64 cached formulas.
type ServiceOptions = service.Config

// Service is the embeddable sampling-as-a-service engine: a
// prepared-formula cache (fingerprint-keyed, single-flight, LRU) in
// front of the parallel sampling engine. Unlike Sampler, which is bound
// to one formula and one goroutine, a Service accepts concurrent
// requests for any mix of formulas; the expensive once-per-formula
// setup (ApproxMC estimation) runs at most once per distinct formula,
// however many requests race for it.
//
// Determinism: for a fixed (formula, seed, n), Sample returns witnesses
// bit-identical to Sampler.SampleN and to the HTTP transport — whether
// the formula was cached or cold, and whatever worker count executes
// the rounds.
type Service struct {
	inner *service.Service
}

// NewService validates options and returns an empty service.
func NewService(opts ServiceOptions) (*Service, error) {
	inner, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	return &Service{inner: inner}, nil
}

// Sample draws n almost-uniform witnesses of f with the given seed,
// preparing (or reusing the cached preparation of) the formula as
// needed. Safe for concurrent use. Cancelling ctx interrupts in-flight
// SAT search promptly.
func (s *Service) Sample(ctx context.Context, f *Formula, seed uint64, n int) ([]Witness, error) {
	res, err := s.inner.Sample(ctx, service.SampleRequest{Formula: f, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]Witness, len(res.Witnesses))
	for i, a := range res.Witnesses {
		out[i] = Witness{a: a}
	}
	return out, nil
}

// SampleDelta draws n almost-uniform witnesses of base ∧ assumptions,
// where base is the fingerprint (FormulaFingerprint) of a formula this
// service has already prepared and assumptions are signed DIMACS
// literals conjoined as unit clauses. The conditioned formula is
// prepared on pooled warm sessions over the base — no DIMACS re-parse,
// no solver rebuild — and the witnesses are bit-identical to Sample on
// the conjoined formula with the same seed. An unknown base fails with
// an error the HTTP transport maps to 404; empty assumptions sample
// the base itself by fingerprint.
func (s *Service) SampleDelta(ctx context.Context, base string, assumptions []int, seed uint64, n int) ([]Witness, error) {
	res, err := s.inner.Sample(ctx, service.SampleRequest{Base: base, Assumptions: assumptions, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]Witness, len(res.Witnesses))
	for i, a := range res.Witnesses {
		out[i] = Witness{a: a}
	}
	return out, nil
}

// CountDelta returns the prepared witness count of base ∧ assumptions
// (see SampleDelta for the delta request contract); the boolean is the
// exactness flag of Count.
func (s *Service) CountDelta(ctx context.Context, base string, assumptions []int) (*big.Int, bool, error) {
	res, err := s.inner.Count(ctx, service.CountRequest{Base: base, Assumptions: assumptions})
	if err != nil {
		return nil, false, err
	}
	return res.Count, res.Exact, nil
}

// Count returns the prepared witness count of f projected onto its
// sampling set: exact (second return true) when the solution space was
// small enough to enumerate at preparation time, otherwise the ApproxMC
// estimate of Algorithm 1 line 9. Preparation runs ApproxMC only until
// q is settled, so the first count of a prepared formula runs its
// remaining rounds; later counts answer without any solver work.
func (s *Service) Count(ctx context.Context, f *Formula) (*big.Int, bool, error) {
	res, err := s.inner.Count(ctx, service.CountRequest{Formula: f})
	if err != nil {
		return nil, false, err
	}
	return res.Count, res.Exact, nil
}

// Handler returns the HTTP transport of this service (the same routes
// cmd/unigend serves): POST /sample, POST /count, GET /healthz,
// GET /stats, GET /metrics, GET /debug/requests.
func (s *Service) Handler() http.Handler { return service.NewHandler(s.inner) }

// MetricsHandler serves just the Prometheus /metrics exposition —
// for mounting on a separate debug listener alongside pprof.
func (s *Service) MetricsHandler() http.Handler { return service.MetricsHandler(s.inner) }

// Close drains the service: new requests are rejected immediately,
// in-flight requests run to completion, and any still running when ctx
// expires have their SAT searches interrupted and fail with a draining
// error. Returns nil when the drain completed cleanly before the
// deadline, ctx.Err() otherwise.
func (s *Service) Close(ctx context.Context) error { return s.inner.Close(ctx) }

// Health reports the coarse node state the /healthz endpoint serves:
// "ok", "overloaded" (admission queue at least half full — stop
// routing new work here if you can), or "draining" (shutting down).
func (s *Service) Health() string { return string(s.inner.Health()) }

// ServiceStats is the snapshot GET /stats encodes: the prepared-formula
// cache with its per-formula counters, the persistent store, the
// admission gate, per-outcome request totals, cumulative solver work,
// the delta-session block and the health state.
type ServiceStats = service.Stats

// ServiceFormulaStats are one cached formula's request counters, its
// delta base (if any), and the sizes of its sampling and hash sets with
// its hash width.
type ServiceFormulaStats = service.FormulaStats

// Stats snapshots the cache and per-formula counters.
func (s *Service) Stats() ServiceStats { return s.inner.Stats() }
