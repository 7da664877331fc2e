package service

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"unigen/internal/core"
	"unigen/internal/obs"
	"unigen/internal/store"
	"unigen/internal/tally"
)

// Observability wiring (DESIGN §10): every counter the service and the
// layers below it already kept — admission gate, outcome tallies,
// cache hit/miss, solver-work deltas — feeds one obs.Registry rendered
// at GET /metrics, and every request carries an obs.Trace whose span
// tree (admission / prepare / rounds / per-round cells) is surfaced
// via the X-Unigen-Trace header, the optional "trace" JSON echo, the
// slow-request log record, and the GET /debug/requests ring.

// SolverTotals aggregates solver work over many requests or
// preparation flights — the cumulative view /stats lost when
// core.Stats was computed per request and dropped. ArenaBytes is a
// gauge (largest footprint any contributing session reported); all
// other fields are monotone counters.
type SolverTotals struct {
	Requests     int64 `json:"requests"` // contributing finished requests / flights
	Rounds       int64 `json:"rounds"`
	Samples      int64 `json:"samples"`
	Failures     int64 `json:"failures"`
	BSATCalls    int64 `json:"bsat_calls"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	XORRows      int64 `json:"xor_rows"`
	Learned      int64 `json:"learned"`
	Removed      int64 `json:"removed"`
	Compactions  int64 `json:"compactions"`
	ArenaBytes   int64 `json:"arena_bytes"`
}

// workTotals is the atomic backing of SolverTotals: a count of
// contributing requests (or flights) plus their core.Stats folded row
// by row with each counter's merge op.
type workTotals struct {
	requests atomic.Int64
	c        tally.Totals
}

func (w *workTotals) add(st core.Stats) {
	w.requests.Add(1)
	w.c.Fold(tally.Vec(st))
}

func (w *workTotals) snapshot() SolverTotals {
	v := w.c.Load()
	return SolverTotals{
		Requests:     w.requests.Load(),
		Rounds:       core.Stats(v).Rounds(),
		Samples:      v[tally.Samples],
		Failures:     v[tally.Failures],
		BSATCalls:    v[tally.BSATCalls],
		Conflicts:    v[tally.Conflicts],
		Propagations: v[tally.Propagations],
		XORRows:      v[tally.XORRows],
		Learned:      v[tally.Learned],
		Removed:      v[tally.Removed],
		Compactions:  v[tally.Compactions],
		ArenaBytes:   v[tally.ArenaBytes],
	}
}

// serviceMetrics holds the owned (hot-path) metric instruments; the
// families derived from existing stats sources are registered as
// scrape-time collectors and need no struct fields.
type serviceMetrics struct {
	requests     *obs.CounterVec   // unigen_requests_total{endpoint,outcome}
	reqSeconds   *obs.HistogramVec // unigen_request_seconds{endpoint}
	phaseSeconds *obs.HistogramVec // unigen_phase_seconds{phase}
	witnesses    *obs.Counter      // unigen_witnesses_total
	prepares     *obs.CounterVec   // unigen_prepare_flights_total{result}
}

// phaseSamples renders a per-phase value as the two samples of a
// phase-labeled family: sampling work, then preparation flights.
func (s *Service) phaseSamples(pick func(tally.Vec) int64) []obs.Sample {
	return []obs.Sample{
		{LabelValues: []string{"sample"}, Value: float64(pick(s.work.c.Load()))},
		{LabelValues: []string{"prepare"}, Value: float64(pick(s.prep.c.Load()))},
	}
}

// newServiceMetrics registers every metric family against s. Owned
// instruments are returned; collected families close over the
// service's existing counters so a scrape always reflects the same
// numbers /stats reports.
func newServiceMetrics(s *Service) *serviceMetrics {
	r := s.reg
	m := &serviceMetrics{
		requests:     r.NewCounterVec("unigen_requests_total", "Finished requests by endpoint and outcome.", "endpoint", "outcome"),
		reqSeconds:   r.NewHistogramVec("unigen_request_seconds", "End-to-end request latency in seconds.", nil, "endpoint"),
		phaseSeconds: r.NewHistogramVec("unigen_phase_seconds", "Latency of request phases: prepare (full preparation flights) and rounds (hash-constrained sampling).", nil, "phase"),
		witnesses:    r.NewCounter("unigen_witnesses_total", "Witnesses returned across all sample requests."),
		prepares:     r.NewCounterVec("unigen_prepare_flights_total", "Preparation flights by result.", "result"),
	}

	// Cache (DESIGN §8): cumulative hit/miss/eviction counters plus the
	// current size against capacity.
	r.CollectCounters("unigen_cache_requests_total", "Prepared-formula cache lookups by result.", []string{"result"}, func() []obs.Sample {
		hits, misses, evictions, _ := s.cache.counts()
		return []obs.Sample{
			{LabelValues: []string{"hit"}, Value: float64(hits)},
			{LabelValues: []string{"miss"}, Value: float64(misses)},
			{LabelValues: []string{"eviction"}, Value: float64(evictions)},
		}
	})
	r.CollectGauges("unigen_cache_size", "Prepared formulas currently cached.", nil, func() []obs.Sample {
		_, _, _, size := s.cache.counts()
		return []obs.Sample{{Value: float64(size)}}
	})
	r.CollectGauges("unigen_cache_capacity", "Prepared-formula cache capacity (LRU bound).", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.cfg.CacheSize)}}
	})

	// Persistent store (DESIGN §12): disk-tier counters, registered only
	// when the tier exists so a store-less deployment's scrape stays
	// exactly as before. Each family closes over Store.Stats, the same
	// source /stats reports.
	if s.store != nil {
		storeCounter := func(name, help string, pick func(store.Stats) int64) {
			r.CollectCounters(name, help, nil, func() []obs.Sample {
				return []obs.Sample{{Value: float64(pick(s.store.Stats()))}}
			})
		}
		storeCounter("unigen_store_hits_total", "Disk-tier lookups that served a valid entry.",
			func(t store.Stats) int64 { return t.Hits })
		storeCounter("unigen_store_misses_total", "Disk-tier lookups that fell through to a cold prepare.",
			func(t store.Stats) int64 { return t.Misses })
		storeCounter("unigen_store_writes_total", "Prepared formulas persisted by the write-behind queue.",
			func(t store.Stats) int64 { return t.Writes })
		storeCounter("unigen_store_write_errors_total", "Store writes dropped (queue overflow or I/O failure).",
			func(t store.Stats) int64 { return t.WriteErrors })
		storeCounter("unigen_store_evictions_total", "Store entries removed by the size-cap scan.",
			func(t store.Stats) int64 { return t.Evictions })
		storeCounter("unigen_store_corrupt_entries_total", "Store entries quarantined as corrupt, truncated, or version-skewed.",
			func(t store.Stats) int64 { return t.CorruptEntries })
		r.CollectGauges("unigen_store_bytes", "Total size of live persistent-store entries.", nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(s.store.Stats().Bytes)}}
		})
	}

	// Admission gate (DESIGN §9): live occupancy and the shed counters,
	// split by reason exactly as AdmissionStats reports them.
	r.CollectGauges("unigen_inflight_requests", "Requests currently admitted (slots occupied).", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.adm.snapshot().InFlight)}}
	})
	r.CollectGauges("unigen_admission_queued", "Requests currently waiting for an admission slot.", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.adm.queued.Load())}}
	})
	r.CollectGauges("unigen_admission_queue_high_water", "High-water mark of the admission wait queue.", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.adm.maxQueued.Load())}}
	})
	r.CollectCounters("unigen_admission_shed_total", "Requests shed by the admission gate, by reason.", []string{"reason"}, func() []obs.Sample {
		return []obs.Sample{
			{LabelValues: []string{"queue_full"}, Value: float64(s.adm.shedFull.Load())},
			{LabelValues: []string{"queue_wait"}, Value: float64(s.adm.shedWait.Load())},
			{LabelValues: []string{"tenant_quota"}, Value: float64(s.adm.shedTenant.Load())},
		}
	})

	// Solver-work totals, the cumulative view of core.Stats across
	// finished requests (phase="sample") and preparation flights
	// (phase="prepare"): one unigen_solver_* family per counter-table
	// row with HELP text, plus the rounds consumed.
	for id, row := range tally.Table {
		if row.Help == "" {
			continue
		}
		name, collect := "unigen_solver_"+row.Name+"_total", r.CollectCounters
		if row.Kind == tally.Gauge {
			name, collect = "unigen_solver_"+row.Name, r.CollectGauges
		}
		collect(name, row.Help, []string{"phase"}, func() []obs.Sample {
			return s.phaseSamples(func(v tally.Vec) int64 { return v[id] })
		})
	}
	r.CollectCounters("unigen_sampling_rounds_total", "Sampling rounds consumed (successes + bot outcomes).", []string{"phase"}, func() []obs.Sample {
		return s.phaseSamples(func(v tally.Vec) int64 { return core.Stats(v).Rounds() })
	})

	// Delta sessions (DESIGN §13): request outcomes plus the session-pool
	// fleet — check-out hit/miss, retirements, and the idle gauge.
	r.CollectCounters("unigen_delta_requests_total", "Delta (base + assumptions) requests by result.", []string{"result"}, func() []obs.Sample {
		return []obs.Sample{
			{LabelValues: []string{"served"}, Value: float64(s.delta.served.Load())},
			{LabelValues: []string{"unknown_base"}, Value: float64(s.delta.unknownBase.Load())},
		}
	})
	r.CollectCounters("unigen_session_pool_events_total", "Session-pool check-out/check-in events by kind across all per-base pools.", []string{"event"}, func() []obs.Sample {
		return []obs.Sample{
			{LabelValues: []string{"hit"}, Value: float64(s.poolTot.hits.Load())},
			{LabelValues: []string{"miss"}, Value: float64(s.poolTot.misses.Load())},
			{LabelValues: []string{"retired"}, Value: float64(s.poolTot.retired.Load())},
		}
	})
	r.CollectGauges("unigen_session_pool_idle", "Sessions currently parked across all per-base pools.", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.poolTot.idle.Load())}}
	})

	// Process-level: uptime, build identity, and the debug ring volume.
	r.CollectGauges("unigen_uptime_seconds", "Seconds since the service was constructed.", nil, func() []obs.Sample {
		return []obs.Sample{{Value: time.Since(s.start).Seconds()}}
	})
	r.CollectGauges("unigen_build_info", "Build identity (constant 1; the labels carry the info).", []string{"version", "go"}, func() []obs.Sample {
		v, gov := obs.BuildVersion()
		return []obs.Sample{{LabelValues: []string{v, gov}, Value: 1}}
	})
	r.CollectCounters("unigen_slow_requests_total", "Requests recorded in the slow-request debug ring.", nil, func() []obs.Sample {
		return []obs.Sample{{Value: float64(s.ring.Total())}}
	})
	return m
}

// outcomeStats sums unigen_requests_total over its endpoints.
func (s *Service) outcomeStats() OutcomeStats {
	n := s.met.requests.SumBy("outcome")
	return OutcomeStats{
		OK:          n["ok"],
		Shed:        n["shed"],
		Drained:     n["drained"],
		Timeout:     n["timeout"],
		Panic:       n["panic"],
		UnknownBase: n["unknown_base"],
		Invalid:     n["invalid"],
		Canceled:    n["canceled"],
		Error:       n["error"],
	}
}

// outcomeName classifies a finished request's error into the outcome
// vocabulary shared by OutcomeStats, the unigen_requests_total metric,
// structured logs, and the debug ring.
func outcomeName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "shed"
	case errors.Is(err, ErrDraining):
		return "drained"
	case errors.Is(err, ErrDeadline), errors.Is(err, ErrClientTimeout), errors.Is(err, core.ErrBudget):
		return "timeout"
	case errors.Is(err, ErrPanic), isRoundPanic(err):
		return "panic"
	case errors.Is(err, ErrUnknownBase):
		return "unknown_base"
	case errors.Is(err, ErrInvalidRequest), errors.Is(err, core.ErrUnsat):
		return "invalid"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// reqObs carries one request's observability through its lifetime:
// the trace, the wall clock, and the attribution fields the epilogue
// logs and records. startRequest installs the trace into the request
// context (reusing one the transport already created, so the HTTP
// layer and the service always share a single span tree).
type reqObs struct {
	s        *Service
	endpoint string
	tenant   string
	tr       *obs.Trace
	start    time.Time

	// Filled in as the request progresses.
	n           int
	fingerprint string
	cacheHit    bool
	witnesses   int
}

func (s *Service) startRequest(ctx context.Context, endpoint, tenant string) (context.Context, *reqObs) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	return ctx, &reqObs{s: s, endpoint: endpoint, tenant: tenant, tr: tr, start: time.Now()}
}

// finish is the request epilogue: outcome counters, latency
// histograms, the structured log record, and — for slow or genuinely
// failed requests — the debug ring. Shed and invalid requests stay out
// of the ring (an overload storm or a misbehaving client would flush
// the interesting entries), but still count everywhere else.
func (ro *reqObs) finish(err error) {
	s := ro.s
	out := outcomeName(err)
	s.met.requests.With(ro.endpoint, out).Inc()
	ro.tr.Root().End()
	dur := time.Since(ro.start)
	s.met.reqSeconds.With(ro.endpoint).ObserveDuration(dur)

	slow := s.slowThreshold() > 0 && dur >= s.slowThreshold()
	ringWorthy := slow || (err != nil && out != "shed" && out != "invalid")
	if ringWorthy {
		rec := obs.RequestRecord{
			TraceID:     ro.tr.ID(),
			Time:        ro.start,
			Endpoint:    ro.endpoint,
			Tenant:      ro.tenant,
			Fingerprint: ro.fingerprint,
			Outcome:     out,
			Duration:    dur,
			N:           ro.n,
			CacheHit:    ro.cacheHit,
			Trace:       ro.tr.Snapshot(),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		s.ring.Add(rec)
	}

	if lg := s.logger; lg != nil {
		attrs := []slog.Attr{
			slog.String("request_id", ro.tr.ID()),
			slog.String("endpoint", ro.endpoint),
			slog.String("tenant", ro.tenant),
			slog.String("fingerprint", ro.fingerprint),
			slog.String("outcome", out),
			slog.Duration("duration", dur),
			slog.Bool("cache_hit", ro.cacheHit),
		}
		if ro.endpoint == "sample" {
			attrs = append(attrs, slog.Int("n", ro.n), slog.Int("witnesses", ro.witnesses))
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		level := slog.LevelInfo
		msg := "request"
		if slow {
			// The slow-request record carries the full span breakdown,
			// so "where did the time go" is answerable from one line.
			level = slog.LevelWarn
			msg = "slow request"
			attrs = append(attrs, slog.Any("trace", ro.tr.Snapshot()))
		}
		lg.LogAttrs(context.Background(), level, msg, attrs...)
	}
}

// slowThreshold resolves Config.SlowRequest: 0 defaults to 1s,
// negative disables slow-request handling entirely.
func (s *Service) slowThreshold() time.Duration {
	if s.cfg.SlowRequest == 0 {
		return time.Second
	}
	if s.cfg.SlowRequest < 0 {
		return 0
	}
	return s.cfg.SlowRequest
}

// Registry exposes the metrics registry (the backing of GET /metrics)
// for embedders that mount their own scrape endpoint or add their own
// families alongside the service's.
func (s *Service) Registry() *obs.Registry { return s.reg }

// DebugRequests returns the retained slow/failed request records,
// newest first — the backing of GET /debug/requests.
func (s *Service) DebugRequests() []obs.RequestRecord { return s.ring.Snapshot() }

// Uptime reports how long the service has existed.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }
