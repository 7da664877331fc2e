package unigen

import (
	"context"
	"log/slog"
	"math/big"
	"net/http"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/service"
)

// FormulaFingerprint returns the canonical fingerprint of f in hex: the
// SHA-256 of its normalized DIMACS serialization. Presentation changes
// (clause/literal order, duplicates, tautologies, sampling-set order)
// do not change the fingerprint; semantic changes do. It is the
// identity under which Service caches prepared formulas.
func FormulaFingerprint(f *Formula) string { return cnf.FingerprintString(f) }

// ServiceOptions configures an embedded sampling service. The zero
// value is usable: ε = 6, one worker per request, 64 cached formulas.
type ServiceOptions struct {
	// Epsilon is the uniformity tolerance for every prepared formula
	// (> 1.71; default 6).
	Epsilon float64
	// MaxConflicts / MaxPropagations bound each solver call during
	// preparation and (by default) sampling (0 = unlimited).
	MaxConflicts    int64
	MaxPropagations int64
	// GaussJordan enables Gauss–Jordan XOR preprocessing.
	GaussJordan bool
	// ApproxMCRounds caps setup-time counter iterations (benchmark
	// knob; 0 keeps the paper's parameters).
	ApproxMCRounds int
	// Workers is the per-request worker-pool size (default 1).
	Workers int
	// CacheSize bounds the prepared-formula LRU cache (default 64).
	CacheSize int
	// StoreDir enables the persistent prepared-formula store: a disk
	// tier under the RAM cache that survives restarts ("" disables it).
	// Prepared formulas are rehydrated from disk instead of re-running
	// the setup, and new preparations are persisted in the background.
	StoreDir string
	// StoreMaxBytes caps the persistent store's size; least-recently-
	// accessed entries are evicted beyond it (0 = unlimited).
	StoreMaxBytes int64

	// Delta sessions (SampleDelta / CountDelta).

	// SessionPool caps idle pooled solver sessions kept per base formula
	// for delta requests (default 8).
	SessionPool int
	// DeltaQWindow is the hash-width divergence window beyond which a
	// conditioned delta entry is promoted to a first-class formula with
	// its own sessions (default 3; negative promotes every non-easy
	// delta).
	DeltaQWindow int

	// Overload safety (zero values keep the permissive behavior: no
	// gate, no queue, no quotas, no deadlines).

	// MaxInFlight caps concurrently admitted requests (0 = unlimited).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a free slot once
	// MaxInFlight are busy; everything beyond is shed immediately.
	MaxQueue int
	// QueueWait caps how long a queued request waits before being shed
	// (default 2s when MaxInFlight > 0).
	QueueWait time.Duration
	// TenantQuota caps in-flight requests per tenant (0 = unlimited).
	TenantQuota int
	// DefaultTimeout is the server-side deadline applied to every
	// request (0 = none); at the deadline in-flight SAT search is
	// interrupted and the request fails.
	DefaultTimeout time.Duration
	// PrepareTimeout caps the wall clock of one formula preparation
	// (0 = none).
	PrepareTimeout time.Duration
	// RetryAfter is the Retry-After hint the HTTP transport attaches to
	// shed and draining responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps HTTP request bodies (default 64 MiB).
	MaxBodyBytes int64

	// Observability (zero values keep sane defaults: discarded logs, 1s
	// slow-request threshold, 128 retained debug records).

	// Logger receives one structured record per finished request (nil
	// discards them). Slow or failed requests log at Warn with their
	// full span breakdown attached.
	Logger *slog.Logger
	// SlowRequest is the duration past which a request is logged at Warn
	// with its span tree and retained at /debug/requests (0 = 1s,
	// negative = disabled).
	SlowRequest time.Duration
	// DebugRequests bounds the in-memory ring of recent slow/failed
	// requests served at /debug/requests (0 = 128).
	DebugRequests int
}

// Service is the embeddable sampling-as-a-service engine: a
// prepared-formula cache (fingerprint-keyed, single-flight, LRU) in
// front of the parallel sampling engine. Unlike Sampler, which is bound
// to one formula and one goroutine, a Service accepts concurrent
// requests for any mix of formulas; the expensive once-per-formula
// setup (ApproxMC estimation) runs at most once per distinct formula,
// however many requests race for it.
//
// Determinism: for a fixed (formula, seed, n), Sample returns witnesses
// bit-identical to Sampler.SampleN with Workers ≥ 1 and to the HTTP
// transport — whether the formula was cached or cold, and whatever
// worker count executes the rounds.
type Service struct {
	inner *service.Service
}

// NewService validates options and returns an empty service.
func NewService(opts ServiceOptions) (*Service, error) {
	inner, err := service.New(service.Config{
		Epsilon:         opts.Epsilon,
		MaxConflicts:    opts.MaxConflicts,
		MaxPropagations: opts.MaxPropagations,
		GaussJordan:     opts.GaussJordan,
		ApproxMCRounds:  opts.ApproxMCRounds,
		Workers:         opts.Workers,
		CacheSize:       opts.CacheSize,
		StoreDir:        opts.StoreDir,
		StoreMaxBytes:   opts.StoreMaxBytes,
		SessionPool:     opts.SessionPool,
		DeltaQWindow:    opts.DeltaQWindow,
		MaxInFlight:     opts.MaxInFlight,
		MaxQueue:        opts.MaxQueue,
		QueueWait:       opts.QueueWait,
		TenantQuota:     opts.TenantQuota,
		DefaultTimeout:  opts.DefaultTimeout,
		PrepareTimeout:  opts.PrepareTimeout,
		RetryAfter:      opts.RetryAfter,
		MaxBodyBytes:    opts.MaxBodyBytes,
		Logger:          opts.Logger,
		SlowRequest:     opts.SlowRequest,
		DebugRequests:   opts.DebugRequests,
	})
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
// estimate of Algorithm 1 line 9. A cache hit answers without any
// solver work.
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

// ServiceStats is a snapshot of the prepared-formula cache, the
// admission gate, and per-outcome request counters.
type ServiceStats struct {
	Hits      int64 // requests that found a cached (or in-flight) preparation
	Misses    int64 // requests that started a preparation
	Evictions int64
	Size      int // formulas currently cached
	Capacity  int
	Formulas  []ServiceFormulaStats // most recently used first

	Store     service.StoreStats     // persistent disk tier (zero when disabled)
	Admission service.AdmissionStats // concurrency gate snapshot
	Outcomes  service.OutcomeStats   // finished requests by outcome
	Solver    service.SolverTotals   // cumulative solver work of finished sampling
	Prepare   service.SolverTotals   // cumulative solver work of preparation flights
	Delta     service.DeltaStats     // delta requests and the session-pool fleet
	State     string                 // "ok" | "overloaded" | "draining"
}

// ServiceFormulaStats are per-formula request counters.
type ServiceFormulaStats struct {
	Fingerprint string
	EasyCase    bool // prepared by exact enumeration, no ApproxMC
	Requests    int64
	Samples     int64
	Counts      int64
	// Delta marks entries prepared from a base under assumptions; Base
	// is the base's fingerprint (empty for promoted diverged deltas).
	Delta bool
	Base  string
	// SamplingVars is the size of the declared sampling set, HashVars
	// the size of the hash set sampling hashes over (the sampling
	// variables the others do not define), and Q the hash width (0 in
	// the easy case).
	SamplingVars int
	HashVars     int
	Q            int
}

// Stats snapshots the cache and per-formula counters.
func (s *Service) Stats() ServiceStats {
	st := s.inner.Stats()
	out := ServiceStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Size:      st.Size,
		Capacity:  st.Capacity,
		Store:     st.Store,
		Admission: st.Admission,
		Outcomes:  st.Outcomes,
		Solver:    st.Solver,
		Prepare:   st.Prepare,
		Delta:     st.Delta,
		State:     string(st.State),
	}
	for _, f := range st.Formulas {
		out.Formulas = append(out.Formulas, ServiceFormulaStats{
			Fingerprint: f.Fingerprint,
			EasyCase:    f.EasyCase,
			Requests:    f.Requests,
			Samples:     f.Samples,
			Counts:      f.Counts,
			Delta:       f.Delta,
			Base:        f.Base,

			SamplingVars: f.SamplingVars,
			HashVars:     f.HashVars,
			Q:            f.Q,
		})
	}
	return out
}
