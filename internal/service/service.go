// Package service is the sampling-as-a-service layer over the UniGen
// core: a canonical formula fingerprint (normalized DIMACS → SHA-256,
// see cnf.Fingerprint), an LRU cache of prepared formulas — the
// once-per-formula core.Setup holding the easy-case witness list or
// the ApproxMC estimate with κ/pivot — with single-flight
// preparation, and a request scheduler that multiplexes sample and
// count jobs over the parallel engine with per-request seeds, budgets,
// and context cancellation.
//
// The whole point of UniGen's architecture (DAC'14) is amortization:
// one expensive estimation pass per formula, then thousands of cheap
// hash-constrained samples. A multi-tenant service is the natural
// industrialization of that shape — many requests hitting the same
// formula should pay for one Setup, however they interleave.
//
// # Overload safety
//
// UniGen's per-request cost is heavy-tailed by construction: a single
// hard formula can burn an unbounded number of BSAT calls. The service
// therefore fronts the scheduler with four defensive layers (DESIGN
// §9): admission control (a bounded concurrency gate with a short
// bounded wait queue and per-tenant quotas, shedding excess load as
// ErrOverloaded), deadline budgets (a server-side default request
// timeout and a preparation wall-clock cap, both enforced through
// solver interrupts so a request stops consuming CPU the moment its
// deadline passes), panic isolation (recover at request and
// preparation-flight boundaries; a panicking preparation fails its
// waiters but is never cached), and graceful drain (Close rejects new
// requests, waits out in-flight ones, and interrupts stragglers at the
// deadline). All four are exercised by the chaos suite under injected
// faults (internal/faultpoint).
//
// # Determinism across transports
//
// For a fixed (formula, seed, n), the witnesses returned through
// Service.Sample (and the HTTP handler over it) are bit-identical to
// Sampler.SampleN on a fresh facade sampler at any Workers value. Two
// mechanisms compose to give this: preparation runs under an RNG seeded
// from the formula fingerprint (core.PrepSeed) in every path, so a
// cached Setup is exactly the Setup a cold run would build; and each
// request runs round streams randx.Stream(seed, 0..) on a fresh engine
// over that Setup, the same streams a cold run consumes (round outcomes
// are solver-history-independent, so reused setups and fresh sessions
// cannot diverge — see core.SampleRound). The one exemption, inherited
// from the parallel engine's contract: runs in which conflict-budget
// exhaustion fires may retry rounds differently.
package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/faultpoint"
	"unigen/internal/obs"
	"unigen/internal/parallel"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/store"
	"unigen/internal/tally"
)

// Config fixes the service-wide preparation parameters. Fields that
// affect the prepared state (everything except Workers, CacheSize, and
// the robustness knobs) are folded into the cache key, so one Service
// instance never serves a request from state prepared under different
// parameters.
type Config struct {
	// Epsilon is the uniformity tolerance used for every prepared
	// formula (> 1.71; default 6, the paper's experimental setting).
	Epsilon float64
	// MaxConflicts / MaxPropagations bound each preparation-time and
	// default per-request solver call (0 = unlimited).
	MaxConflicts    int64
	MaxPropagations int64
	// Workers is the default per-request worker-pool size (default 1).
	Workers int
	// CacheSize bounds the number of prepared formulas kept (LRU;
	// default 64).
	CacheSize int

	// Delta sessions (DESIGN §13). A delta request names a prepared base
	// by fingerprint plus assumption literals; the service derives the
	// conditioned setup on a pooled session over the base instead of
	// rebuilding a solver.

	// SessionPool caps idle pooled sessions kept per base formula
	// (default 8). Check-ins beyond the cap retire the session.
	SessionPool int

	// Persistent store (DESIGN §12). When StoreDir is set the RAM LRU
	// grows a disk tier: preparation flights first try to rehydrate an
	// encoded Setup from disk, and cold preparations are persisted via a
	// background write-behind queue. Entries are keyed by the same
	// fingerprint+parameters string as the RAM cache, so state prepared
	// under different Epsilon/solver settings never aliases.

	// StoreDir is the persistent-store directory ("" disables the disk
	// tier). Opened (and created) at New; a warm scan counts surviving
	// entries.
	StoreDir string
	// StoreMaxBytes caps the store's total size; the write-behind
	// goroutine evicts least-recently-accessed entries beyond it
	// (0 = unlimited).
	StoreMaxBytes int64

	// Admission control (DESIGN §9). Zero values keep the permissive
	// pre-admission behavior: no gate, no queue, no quotas.

	// MaxInFlight caps concurrently admitted requests (0 = unlimited).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a slot once all
	// MaxInFlight are busy; everything beyond is shed immediately
	// (0 = no queue: shed as soon as the gate is full).
	MaxQueue int
	// QueueWait caps how long a queued request waits for a slot before
	// being shed (default 2s when the gate is on).
	QueueWait time.Duration
	// TenantQuota caps in-flight requests per tenant (0 = unlimited).
	// Enforced even when the global gate is off.
	TenantQuota int

	// Deadline budgets (DESIGN §9).

	// DefaultTimeout is the server-side deadline applied to every
	// request (0 = none). When it fires, the request's solvers are
	// interrupted and the request fails with ErrDeadline (503).
	DefaultTimeout time.Duration
	// PrepareTimeout caps the wall clock of one preparation flight
	// (0 = none). When it fires the flight's solver is interrupted, the
	// flight fails every waiter with ErrDeadline, and nothing is cached.
	PrepareTimeout time.Duration

	// RetryAfter is the Retry-After hint transports attach to shed and
	// draining responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps HTTP request bodies (default 64 MiB); larger
	// payloads are rejected with 413 before any DIMACS parsing.
	MaxBodyBytes int64

	// Observability (DESIGN §10).

	// Logger receives one structured record per finished request
	// (request-id, tenant, fingerprint, outcome, duration) plus the
	// daemon-facing warnings. nil disables service-layer logging —
	// metrics and traces still work.
	Logger *slog.Logger
	// SlowRequest is the latency threshold beyond which a request is
	// logged at Warn level with its full span breakdown and retained in
	// the /debug/requests ring. 0 defaults to 1s; negative disables.
	SlowRequest time.Duration
	// DebugRequests bounds the /debug/requests ring (default 128).
	DebugRequests int
}

// Service serves sample and count requests over a prepared-formula
// cache. Safe for concurrent use by any number of request handlers.
type Service struct {
	cfg   Config
	cache *prepCache
	memo  *memo        // request text and delta keys → fingerprint
	store *store.Store // disk tier; nil when Config.StoreDir is empty
	adm   *admission
	out   outcomes

	// Observability spine (DESIGN §10): the metrics registry behind
	// GET /metrics, the per-request instruments, cumulative solver-work
	// totals for sampling (work) and preparation flights (prep), the
	// slow-request ring, and the per-request logger.
	reg    *obs.Registry
	met    *serviceMetrics
	ring   *obs.RequestRing
	logger *slog.Logger
	work   workTotals
	prep   workTotals
	start  time.Time

	// Delta-session counters (DESIGN §13): request outcomes and the
	// fleet-wide session-pool totals shared by every per-base pool.
	delta   deltaTotals
	poolTot poolTotals

	mu       sync.Mutex // guards draining, active, activeSeq
	idle     *sync.Cond // signalled when active drops to zero
	draining bool
	active   map[uint64]context.CancelCauseFunc
	seq      uint64
}

// New validates the configuration and returns an empty service.
func New(cfg Config) (*Service, error) {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 6
	}
	if _, err := core.ComputeKappaPivot(cfg.Epsilon); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	if cfg.DebugRequests <= 0 {
		cfg.DebugRequests = 128
	}
	s := &Service{
		cfg:    cfg,
		cache:  newPrepCache(cfg.CacheSize),
		memo:   newMemo(memoPerEntry * cfg.CacheSize),
		adm:    newAdmission(cfg),
		active: map[uint64]context.CancelCauseFunc{},
		reg:    obs.NewRegistry(),
		ring:   obs.NewRequestRing(cfg.DebugRequests),
		logger: cfg.Logger,
		start:  time.Now(),
	}
	s.idle = sync.NewCond(&s.mu)
	if cfg.StoreDir != "" {
		ds, err := store.Open(store.Options{
			Dir:      cfg.StoreDir,
			MaxBytes: cfg.StoreMaxBytes,
			Verify:   core.VerifySetupFrame,
			Logger:   cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening persistent store: %w", err)
		}
		s.store = ds
	}
	s.met = newServiceMetrics(s)
	// Preparation flights report here when they finish, whichever
	// request triggered them: solver-work totals for /stats and
	// /metrics, the prepare-phase latency histogram, and the flight
	// outcome counter. Accounting at the flight keeps single-flight
	// preparations counted exactly once, not per co-waiter. Disk-tier
	// rehydrations carry setup stats describing another process's solver
	// work, so they get their own result label and stay out of the
	// prepare work totals — this process did no solving for them.
	s.cache.onFlightDone = func(p *prepared, d time.Duration, err error) {
		s.met.phaseSeconds.With("prepare").ObserveDuration(d)
		switch {
		case err != nil && errors.Is(err, ErrUnknownBase):
			s.met.prepares.With("unknown_base").Inc()
		case err != nil:
			s.met.prepares.With("error").Inc()
		case p.fromDisk:
			s.met.prepares.With("disk_hit").Inc()
		case p.base != nil:
			s.met.prepares.With("delta").Inc()
			s.prep.add(p.prepStats)
		default:
			s.met.prepares.With("ok").Inc()
			s.prep.add(p.prepStats)
		}
	}
	return s, nil
}

// SampleRequest asks for n almost-uniform witnesses of Formula drawn
// with the given seed. Alternatively (DESIGN §13) a delta request sets
// Base — the hex fingerprint of a previously prepared formula — plus
// Assumptions instead of Formula; the service samples the base formula
// conjoined with the assumption unit clauses without re-ingesting it.
type SampleRequest struct {
	Formula *cnf.Formula
	N       int
	Seed    uint64
	// Base is the 64-char hex fingerprint of the prepared base formula
	// for a delta request; mutually exclusive with Formula.
	Base string
	// Assumptions are signed DIMACS literals conjoined to the base as
	// unit clauses. Valid only with Base; empty means "sample the base
	// itself by fingerprint".
	Assumptions []int
	// Workers overrides the service's per-request pool size when > 0.
	Workers int
	// MaxConflicts overrides the per-call conflict budget for this
	// request's sampling rounds when > 0 (preparation always runs under
	// the service-wide budgets, whoever triggers it).
	MaxConflicts int64
	// Tenant attributes the request for per-tenant admission quotas
	// ("" is a valid tenant: the anonymous one).
	Tenant string
	// Timeout is the client's own deadline for this request when > 0.
	// Exceeding it fails the request with ErrClientTimeout (422) — the
	// client set the budget, the client gets the client-error status.
	Timeout time.Duration
}

// SampleResult carries the witnesses and the request's observability.
type SampleResult struct {
	Vars        []cnf.Var        // sampling variables, sorted
	Witnesses   []cnf.Assignment // n witnesses (shared easy-case memory: read-only)
	CacheHit    bool             // true when the prepared formula was already cached
	Fingerprint string           // canonical formula fingerprint, hex
	Stats       core.Stats       // this request's sampling rounds only (no setup share)
	TraceID     string           // phase-trace identifier (X-Unigen-Trace over HTTP)
	Delta       bool             // served through the delta path (base + assumptions)
}

// CountRequest asks for the prepared witness count of Formula, or — as
// a delta request — of Base ∧ Assumptions (see SampleRequest).
type CountRequest struct {
	Formula *cnf.Formula
	// Base and Assumptions name a delta request exactly as in
	// SampleRequest; mutually exclusive with Formula.
	Base        string
	Assumptions []int
	// Tenant and Timeout behave exactly as in SampleRequest.
	Tenant  string
	Timeout time.Duration
}

// CountResult is the prepared count: exact when the formula's solution
// space was small enough to enumerate at preparation time, otherwise
// the ApproxMC estimate of Algorithm 1 line 9.
type CountResult struct {
	Count       *big.Int
	Exact       bool
	CacheHit    bool
	Fingerprint string
	TraceID     string
	Delta       bool // served through the delta path (base + assumptions)
}

// ErrInvalidRequest tags request-validation failures (non-positive or
// oversized n, nil formula); transports map it to a client error.
var ErrInvalidRequest = errors.New("service: invalid request")

// maxRequestWorkers caps the per-request pool size: sessions are full
// solver instances, and a request must not be able to allocate an
// unbounded number of them.
const maxRequestWorkers = 64

// maxRequestSamples caps n per request (a request beyond it should be
// split; each round is individually cancellable either way).
const maxRequestSamples = 1 << 20

// isRoundPanic reports a panic recovered at the engine's round
// boundary (kept here so obs.go need not import parallel directly).
func isRoundPanic(err error) bool { return errors.Is(err, parallel.ErrRoundPanic) }

// begin runs the request prologue shared by Sample and Count: the drain
// gate, registration for drain interruption, admission, and the
// deadline budgets. It returns the context the request must run under
// and a finish func to defer (exactly once). On error the request was
// never admitted.
func (s *Service) begin(ctx context.Context, tenant string, clientTimeout time.Duration) (context.Context, func(), error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: not accepting requests", ErrDraining)
	}
	cctx, cancel := context.WithCancelCause(ctx)
	id := s.seq
	s.seq++
	s.active[id] = cancel
	s.mu.Unlock()

	unregister := func() {
		cancel(nil)
		s.mu.Lock()
		delete(s.active, id)
		if len(s.active) == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}

	release, err := s.adm.acquire(cctx, tenant)
	if err != nil {
		unregister()
		return nil, nil, err
	}

	// Deadline budgets: the server default and the client's own, each
	// tagged with its cause so the error (and HTTP status) says whose
	// budget ran out. Nesting sorts precedence: the earlier deadline
	// fires with its own cause.
	rctx := cctx
	cancels := []context.CancelFunc{}
	if d := s.cfg.DefaultTimeout; d > 0 {
		var c context.CancelFunc
		rctx, c = context.WithDeadlineCause(rctx, time.Now().Add(d), ErrDeadline)
		cancels = append(cancels, c)
	}
	if ct := clientTimeout; ct > 0 {
		var c context.CancelFunc
		rctx, c = context.WithDeadlineCause(rctx, time.Now().Add(ct), ErrClientTimeout)
		cancels = append(cancels, c)
	}
	finish := func() {
		for _, c := range cancels {
			c()
		}
		release()
		unregister()
	}
	return rctx, finish, nil
}

// requestErr resolves a context-shaped failure to the budget that
// caused it: the server deadline, the client's own timeout, or a drain
// interruption, each carrying its sentinel. Anything else passes
// through unchanged.
func requestErr(ctx context.Context, err error) error {
	if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, ErrDeadline), errors.Is(cause, ErrClientTimeout), errors.Is(cause, ErrDraining):
		return fmt.Errorf("%w (%v)", cause, err)
	}
	return err
}

// formulaSrc is the formula a request names: a parsed formula (Go API
// callers, and HTTP requests whose text the memo does not hold), or
// DIMACS text the memo already maps to its fingerprint.
type formulaSrc struct {
	f    *cnf.Formula // nil on a memo hit
	text string       // the request's DIMACS text ("" for Go API callers)
	key  memoKey      // textKey(text), when text is set
	fp   [32]byte     // the memo's fingerprint, on a memo hit
	hit  bool         // memo hit: f is nil and fp is known
}

// present reports whether the request named a formula at all.
func (src formulaSrc) present() bool { return src.f != nil || src.hit }

// prepare fetches the prepared formula through the flight (DESIGN
// §12). psp (nil-safe) is the request's prepare span. A memo hit
// brings its fingerprint along, so a cache hit neither parses nor
// fingerprints.
func (s *Service) prepare(ctx context.Context, src formulaSrc, psp *obs.Span) (*prepared, bool, error) {
	if !src.present() {
		return nil, false, fmt.Errorf("%w: nil formula", ErrInvalidRequest)
	}
	fp := src.fp
	if !src.hit {
		fp = cnf.Fingerprint(src.f)
		if src.text != "" {
			s.memo.put(src.key, fp)
		}
	}
	return s.flight(ctx, fp, psp, nil, nil, func() build {
		// Clone the formula so the flight (which may outlive this
		// request) never shares memory the caller could mutate. A memo
		// hit has no formula; the build parses its text.
		var g *cnf.Formula
		if src.f != nil {
			g = src.f.Clone()
		}
		return func(intr *atomic.Bool) (*core.Setup, error) {
			// Chaos injection: a slow preparation (stall honors the
			// flight interrupt) and a preparation crash (recovered at
			// the flight boundary in prepCache.get).
			if err := faultpoint.FireWait(faultpoint.PrepareSlow, intr.Load); err != nil && !errors.Is(err, faultpoint.ErrInterrupted) {
				return nil, err
			}
			_ = faultpoint.Fire(faultpoint.PreparePanic)
			if g == nil {
				// The same bytes parsed before the memo entry was
				// written, so this parse succeeds.
				var err error
				if g, err = cnf.ParseDIMACSString(src.text); err != nil {
					return nil, fmt.Errorf("%w: bad formula: %v", ErrInvalidRequest, err)
				}
			}
			su, err := core.NewSetup(g, randx.New(core.PrepSeedFromFingerprint(fp)), core.Options{
				Epsilon: s.cfg.Epsilon,
				Solver: sat.Config{
					MaxConflicts:    s.cfg.MaxConflicts,
					MaxPropagations: s.cfg.MaxPropagations,
					// The cache raises intr when every requester has
					// abandoned the flight; an unbudgeted preparation
					// must not outlive all interest in it.
					Interrupt: intr,
				},
			})
			if err != nil {
				return nil, err
			}
			// The service builds sessions exclusively through
			// NewSessionWith; drop the setup-phase spare solver instead
			// of pinning one dead solver per cached formula.
			su.ReleaseSpare()
			return su, nil
		}
	})
}

// build is a flight's cold path: it derives the setup under intr, the
// flight's interrupt, which the PrepareTimeout timer and the last
// waiter's abandonment raise.
type build func(intr *atomic.Bool) (*core.Setup, error)

// flight fetches fp's prepared entry through the two-tier lookup
// (DESIGN §12) that formula, delta-base and conditioned-delta requests
// share: a RAM hit serves; concurrent misses for one key share one
// flight, which probes the disk tier under a store child of sp (nil-
// safe) and, when that misses, runs the build begin returns under the
// PrepareTimeout budget and persists its setup write-behind. begin
// runs synchronously on the missing requester, so the hit path pays
// nothing for it; a nil begin makes a disk miss ErrUnknownBase. A
// non-nil base makes the entry, rehydrated or built, a delta of base
// under assumps before the cache publishes it (DESIGN §13).
//
// A requester with a build may join a lookup-only flight for the same
// key (a delta request naming this formula's fingerprint before it is
// prepared). That flight's ErrUnknownBase is not this requester's
// answer: the cache has unlinked the failed flight, so the requester
// looks again and starts a flight that can build, or joins one.
func (s *Service) flight(ctx context.Context, fp [32]byte, sp *obs.Span, base *prepared, assumps []cnf.Lit, begin func() build) (*prepared, bool, error) {
	key := s.cacheKey(fp)
	body := func(intr *atomic.Bool) func() (*prepared, error) {
		var run build
		if begin != nil {
			run = begin()
		}
		return func() (*prepared, error) {
			// Disk tier: a valid entry rehydrates in microseconds with
			// zero solver work. Any defect — bad frame, decode failure,
			// wrong fingerprint — quarantines the entry and falls
			// through to the build; the store path can degrade but
			// never fail a request.
			if s.store != nil {
				ssp := sp.StartSpan("store")
				p, ok := s.rehydrate(key, fp)
				ssp.SetInt("hit", boolInt(ok))
				ssp.End()
				if ok {
					p.base, p.assumps = base, assumps
					return p, nil
				}
			}
			if run == nil {
				return nil, fmt.Errorf("%w: %x", ErrUnknownBase, fp)
			}
			// Preparation wall-clock budget: the timer raises the same
			// interrupt flag abandonment uses, so a runaway setup stops
			// consuming CPU at the deadline; timedOut distinguishes the
			// two for the error mapping.
			var timedOut atomic.Bool
			if pt := s.cfg.PrepareTimeout; pt > 0 {
				t := time.AfterFunc(pt, func() {
					timedOut.Store(true)
					intr.Store(true)
				})
				defer t.Stop()
			}
			su, err := run(intr)
			if err != nil {
				if timedOut.Load() {
					return nil, fmt.Errorf("%w: preparation exceeded %v: %v", ErrDeadline, s.cfg.PrepareTimeout, err)
				}
				return nil, err
			}
			p := &prepared{
				setup:       su,
				prepStats:   su.SetupStats(),
				key:         key,
				fingerprint: hex.EncodeToString(fp[:]),
				base:        base,
				assumps:     assumps,
			}
			// After a restart the entry rehydrates; a conditioned one
			// serves a delta request as the delta it was and a
			// full-formula request as a plain formula entry.
			s.persist(p)
			return p, nil
		}
	}
	for {
		p, hit, err := s.cache.get(ctx, key, body)
		if begin == nil || !hit || !errors.Is(err, ErrUnknownBase) {
			return p, hit, err
		}
	}
}

// persist queues p's encoded setup for the disk tier under its key
// (write-behind: no caller waits on I/O). An encode failure only costs
// durability, never the request. No-op without a store.
func (s *Service) persist(p *prepared) {
	if s.store == nil {
		return
	}
	blob, err := p.setup.Encode()
	if err != nil {
		if s.logger != nil {
			s.logger.Warn("store encode failed", "fingerprint", p.fingerprint, "err", err)
		}
		return
	}
	s.store.Put(p.key, blob)
}

// rehydrate attempts the disk tier: read + frame-verify (inside the
// store), confirm the entry answers the requested formula, and decode.
// Failures past the store's own Verify are reported back as quarantines
// so a rotted entry is retired instead of retried forever.
func (s *Service) rehydrate(key string, fp [32]byte) (*prepared, bool) {
	blob, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	efp, err := core.EncodedFingerprint(blob)
	if err == nil && efp != fp {
		err = fmt.Errorf("store entry for fingerprint %x answers %x", efp, fp)
	}
	var su *core.Setup
	if err == nil {
		su, err = core.DecodeSetup(blob, core.Options{
			Epsilon: s.cfg.Epsilon,
			Solver: sat.Config{
				MaxConflicts:    s.cfg.MaxConflicts,
				MaxPropagations: s.cfg.MaxPropagations,
			},
		})
	}
	if err != nil {
		s.store.Quarantine(key, err)
		return nil, false
	}
	return &prepared{
		setup:       su,
		prepStats:   su.SetupStats(),
		key:         key,
		fingerprint: hex.EncodeToString(fp[:]),
		fromDisk:    true,
	}, true
}

// resolve routes a request to the formula path (prepare) or the delta
// path (prepareDelta) by its shape, enforcing mutual exclusion between
// the two. The third return reports the delta path.
func (s *Service) resolve(ctx context.Context, ro *reqObs, src formulaSrc, base string, assumps []int) (*prepared, bool, bool, error) {
	if base != "" {
		if src.present() {
			return nil, false, true, fmt.Errorf("%w: formula and base fingerprint are mutually exclusive", ErrInvalidRequest)
		}
		dsp := ro.tr.Root().StartSpan("delta")
		prep, hit, err := s.prepareDelta(ctx, base, assumps, dsp)
		dsp.SetInt("cache_hit", boolInt(hit))
		dsp.End()
		return prep, hit, true, err
	}
	if len(assumps) > 0 {
		return nil, false, false, fmt.Errorf("%w: assumptions require a base fingerprint", ErrInvalidRequest)
	}
	psp := ro.tr.Root().StartSpan("prepare")
	prep, hit, err := s.prepare(ctx, src, psp)
	psp.SetInt("cache_hit", boolInt(hit))
	psp.End()
	return prep, hit, false, err
}

// Sample draws req.N almost-uniform witnesses. Cache hits skip straight
// to sampling — no ApproxMC work happens on the hit path. Cancelling
// ctx interrupts in-flight SAT search promptly and fails the request
// with ctx.Err(). Under load the request may be queued briefly or shed
// with ErrOverloaded; a panic anywhere below returns ErrPanic instead
// of unwinding into the caller.
func (s *Service) Sample(ctx context.Context, req SampleRequest) (*SampleResult, error) {
	return s.sample(ctx, req, formulaSrc{f: req.Formula})
}

// sample is Sample with the formula named by src instead of
// req.Formula: the HTTP transport passes what the memo knows of the
// request's text.
func (s *Service) sample(ctx context.Context, req SampleRequest, src formulaSrc) (res *SampleResult, err error) {
	ctx, ro := s.startRequest(ctx, "sample", req.Tenant)
	ro.n = req.N
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
		ro.finish(err)
	}()
	if req.N <= 0 {
		return nil, fmt.Errorf("%w: sample count must be positive", ErrInvalidRequest)
	}
	if req.N > maxRequestSamples {
		return nil, fmt.Errorf("%w: sample count %d exceeds the per-request limit %d", ErrInvalidRequest, req.N, maxRequestSamples)
	}
	asp := ro.tr.Root().StartSpan("admission")
	ctx, finish, err := s.begin(ctx, req.Tenant, req.Timeout)
	asp.End()
	if err != nil {
		return nil, err
	}
	defer finish()
	_ = faultpoint.Fire(faultpoint.RequestPanic) // chaos: request-boundary recover

	prep, hit, isDelta, err := s.resolve(ctx, ro, src, req.Base, req.Assumptions)
	if err != nil {
		return nil, requestErr(ctx, err)
	}
	ro.fingerprint, ro.cacheHit = prep.fingerprint, hit
	prep.requests.Add(1)
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	if workers > maxRequestWorkers {
		workers = maxRequestWorkers
	}
	// Delta entries sample through their base's session pool: warm
	// solvers with the assumptions installed as standing Solve
	// literals, no session build at all. Easy conditioned setups never
	// touch a solver (index picks over the stored witness list), so
	// they skip the checkout. Plain formulas build per-request
	// sessions.
	var eng *parallel.Engine
	var leased []*pooledSession
	var pool *sessionPool
	if prep.base != nil && !prep.setup.Easy() {
		pool = s.poolFor(prep.base)
		leased = pool.checkout(workers)
		mc := req.MaxConflicts
		if mc <= 0 {
			mc = s.cfg.MaxConflicts
		}
		leases := make([]parallel.Lease, len(leased))
		for i, ps := range leased {
			ps.sess.SetAssumptions(prep.assumps)
			ps.sess.SetBudgets(mc, s.cfg.MaxPropagations)
			ps.intr.Store(false)
			leases[i] = parallel.Lease{Sess: ps.sess, Intr: ps.intr}
		}
		eng = parallel.NewEngineWithSessions(prep.setup, leases, req.Seed)
	} else {
		eng = parallel.NewEngineFromSetup(prep.setup, parallel.Options{
			Workers:    workers,
			MasterSeed: req.Seed,
			Core:       core.Options{Solver: sat.Config{MaxConflicts: req.MaxConflicts}},
		})
	}
	// The rounds span parents the engine's per-round (and per-cell)
	// spans via the context; the solver-work delta of exactly this
	// request feeds the cumulative totals whether or not it succeeds.
	rsp := ro.tr.Root().StartSpan("rounds")
	roundsStart := time.Now()
	ws, err := eng.SampleN(obs.WithSpan(ctx, rsp), req.N)
	st := eng.Stats()
	// Check in explicitly (not deferred): a panic unwinding past this
	// point must not re-pool sessions whose state is unknown — the
	// request-boundary recover turns it into ErrPanic and the leased
	// sessions are simply dropped.
	if leased != nil {
		pool.checkin(leased, eng.Doomed())
	}
	s.work.add(st)
	rsp.SetInt("rounds", st.Rounds())
	rsp.SetInt("bsat_calls", st[tally.BSATCalls])
	rsp.SetInt("conflicts", st[tally.Conflicts])
	rsp.SetInt("propagations", st[tally.Propagations])
	rsp.End()
	s.met.phaseSeconds.With("rounds").ObserveDuration(time.Since(roundsStart))
	if err != nil {
		return nil, requestErr(ctx, err)
	}
	prep.samples.Add(int64(len(ws)))
	s.met.witnesses.Add(int64(len(ws)))
	ro.witnesses = len(ws)
	if isDelta {
		s.delta.served.Add(1)
	}
	return &SampleResult{
		Vars:        prep.setup.SamplingSet(),
		Witnesses:   ws,
		CacheHit:    hit,
		Fingerprint: prep.fingerprint,
		Stats:       st,
		TraceID:     ro.tr.ID(),
		Delta:       isDelta,
	}, nil
}

// boolInt renders a bool as a span counter value.
func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Count returns the prepared witness count. Preparation stops
// ApproxMC once q is settled (DESIGN §15), so the first count of a
// hashing-case formula runs the rounds left, once per entry, on a
// session of its own under the service-wide budgets and this request's
// deadline; every later count is a cache lookup with no solver call.
// With a store, that first count re-persists the entry, so the rounds
// do not run again after a restart. Admission, deadlines, and panic
// isolation apply exactly as for Sample.
func (s *Service) Count(ctx context.Context, req CountRequest) (*CountResult, error) {
	return s.count(ctx, req, formulaSrc{f: req.Formula})
}

// count is Count with the formula named by src (see sample).
func (s *Service) count(ctx context.Context, req CountRequest, src formulaSrc) (res *CountResult, err error) {
	ctx, ro := s.startRequest(ctx, "count", req.Tenant)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
		ro.finish(err)
	}()
	asp := ro.tr.Root().StartSpan("admission")
	ctx, finish, err := s.begin(ctx, req.Tenant, req.Timeout)
	asp.End()
	if err != nil {
		return nil, err
	}
	defer finish()
	_ = faultpoint.Fire(faultpoint.RequestPanic) // chaos: request-boundary recover

	prep, hit, isDelta, err := s.resolve(ctx, ro, src, req.Base, req.Assumptions)
	if err != nil {
		return nil, requestErr(ctx, err)
	}
	ro.fingerprint, ro.cacheHit = prep.fingerprint, hit
	prep.requests.Add(1)
	c, exact, ran, err := witnessCount(ctx, ro.tr.Root(), prep.setup)
	if err != nil {
		return nil, requestErr(ctx, err)
	}
	if ran {
		// The stored frame still holds the settled run (DESIGN §12):
		// replace it with the finished count, so a warm restart does
		// not run the deferred rounds again.
		s.persist(prep)
	}
	prep.counts.Add(1)
	if isDelta {
		s.delta.served.Add(1)
	}
	return &CountResult{Count: c, Exact: exact, CacheHit: hit, Fingerprint: prep.fingerprint, TraceID: ro.tr.ID(), Delta: isDelta}, nil
}

// witnessCount is su.WitnessCount with the setup's budgets and an
// interrupt that ctx's end raises. A call the interrupt cut short
// reports ctx's error, not the budget error it surfaces as.
func witnessCount(ctx context.Context, sp *obs.Span, su *core.Setup) (*big.Int, bool, bool, error) {
	cfg := su.SolverConfig()
	intr := new(atomic.Bool)
	cfg.Interrupt = intr
	stop := context.AfterFunc(ctx, func() { intr.Store(true) })
	defer stop()
	c, exact, ran, err := su.WitnessCount(cfg, sp)
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return c, exact, ran, err
}

// HealthState is the coarse health signal /healthz reports.
type HealthState string

// Health states, in degradation order.
const (
	HealthOK         HealthState = "ok"
	HealthOverloaded HealthState = "overloaded" // backpressure building: queue at least half full
	HealthDraining   HealthState = "draining"   // Close in progress: no new requests
)

// Health reports the service's load state: "draining" once Close has
// been called, "overloaded" while the admission queue is at least half
// full (the early warning before shedding), "ok" otherwise.
func (s *Service) Health() HealthState {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return HealthDraining
	}
	if s.adm.overloaded() {
		return HealthOverloaded
	}
	return HealthOK
}

// Close drains the service: new requests are rejected with ErrDraining
// immediately, in-flight requests (including queued ones and running
// preparation flights) get until ctx's deadline to finish, and at the
// deadline every straggler is cancelled with ErrDraining — solver
// interrupts fire, so they return promptly rather than stranding
// workers. Close returns once no request is active; the returned error
// is ctx.Err() when the deadline forced interruptions, nil when
// everything drained naturally. Idempotent.
func (s *Service) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for len(s.active) > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
	}()

	select {
	case <-done:
		s.closeStore()
		return nil
	case <-ctx.Done():
	}

	// Deadline passed: interrupt every straggler. Cancellation reaches
	// each request's engine watcher (solver interrupts) and, through
	// the last-waiter contract, aborts any preparation flight whose
	// requesters are all gone.
	s.mu.Lock()
	for _, cancel := range s.active {
		cancel(ErrDraining)
	}
	s.mu.Unlock()
	<-done
	s.closeStore()
	return ctx.Err()
}

// closeStore drains the persistent store's write-behind queue so a
// clean shutdown persists every prepared formula accepted for writing
// — the warm-restart contract. Idempotent, like Close itself.
func (s *Service) closeStore() {
	if s.store != nil {
		s.store.Close()
	}
}

// Stats is the full observability snapshot behind /stats: the
// prepared-formula cache, the admission gate, the per-outcome request
// totals, the cumulative solver-work totals (sampling work across
// finished requests, and preparation flights separately — the numbers
// that used to be computed per request and dropped), and the health
// state.
type Stats struct {
	CacheStats
	Store     StoreStats     `json:"store"` // disk tier of the prepared-formula cache
	Admission AdmissionStats `json:"admission"`
	Outcomes  OutcomeStats   `json:"outcomes"`
	Solver    SolverTotals   `json:"solver"`  // sampling-phase work across finished requests
	Prepare   SolverTotals   `json:"prepare"` // preparation-flight work
	Delta     DeltaStats     `json:"delta"`   // delta requests and the session-pool fleet
	State     HealthState    `json:"state"`
}

// StoreStats is the persistent-store block of /stats (DESIGN §12).
// All-zero with Enabled=false when the service runs without a disk
// tier.
type StoreStats struct {
	Enabled        bool   `json:"enabled"`
	Dir            string `json:"dir,omitempty"`
	MaxBytes       int64  `json:"max_bytes,omitempty"`
	Hits           int64  `json:"hits"`
	Misses         int64  `json:"misses"`
	Writes         int64  `json:"writes"`
	WriteErrors    int64  `json:"write_errors"`
	Evictions      int64  `json:"evictions"`
	CorruptEntries int64  `json:"corrupt_entries"`
	Bytes          int64  `json:"bytes"`
	Entries        int    `json:"entries"`
}

// storeStats snapshots the disk tier (zero value when disabled).
func (s *Service) storeStats() StoreStats {
	if s.store == nil {
		return StoreStats{}
	}
	st := s.store.Stats()
	return StoreStats{
		Enabled:        true,
		Dir:            s.store.Dir(),
		MaxBytes:       s.store.MaxBytes(),
		Hits:           st.Hits,
		Misses:         st.Misses,
		Writes:         st.Writes,
		WriteErrors:    st.WriteErrors,
		Evictions:      st.Evictions,
		CorruptEntries: st.CorruptEntries,
		Bytes:          st.Bytes,
		Entries:        st.Entries,
	}
}

// Stats snapshots the cache (both tiers), admission gate, outcome
// counters, and cumulative solver-work totals.
func (s *Service) Stats() Stats {
	return Stats{
		CacheStats: s.cache.stats(),
		Store:      s.storeStats(),
		Admission:  s.adm.snapshot(),
		Outcomes:   s.out.snapshot(),
		Solver:     s.work.snapshot(),
		Prepare:    s.prep.snapshot(),
		Delta:      s.deltaStats(),
		State:      s.Health(),
	}
}
