package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/obs"
	"unigen/internal/parallel"
	"unigen/internal/tally"
)

// defaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes is
// unset; larger payloads are rejected with 413 before parsing.
const defaultMaxBodyBytes = 64 << 20

// TenantHeader is the HTTP header naming the requesting tenant for
// per-tenant admission quotas (the JSON "tenant" field wins when both
// are present).
const TenantHeader = "X-Unigen-Tenant"

// TraceHeader is the response header carrying the request's trace ID.
// Every /sample and /count response gets one; quoting it back (e.g.
// when filing a report against a slow request) lets an operator find
// the span tree in GET /debug/requests or in the slow-request log.
const TraceHeader = "X-Unigen-Trace"

// SampleHTTPRequest is the JSON body of POST /sample.
type SampleHTTPRequest struct {
	// Formula is DIMACS CNF text, honoring "c ind" sampling-set lines
	// and "x" XOR-clause lines. Mutually exclusive with Base.
	Formula string `json:"formula,omitempty"`
	N       int    `json:"n"`
	Seed    uint64 `json:"seed"`
	// Base names a previously prepared formula by its hex fingerprint
	// for a delta request (DESIGN §13): the service samples Base ∧
	// Assumptions on pooled warm sessions without re-ingesting the
	// formula. Unknown fingerprints return 404.
	Base string `json:"base,omitempty"`
	// Assumptions are signed DIMACS literals conjoined to the base as
	// unit clauses; valid only with Base.
	Assumptions []int `json:"assumptions,omitempty"`
	// Tenant attributes the request for per-tenant quotas (overrides
	// the X-Unigen-Tenant header).
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS is the client's own deadline in milliseconds; exceeding
	// it returns 422 (the client set the budget).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace, when true, echoes the request's span tree (prepare /
	// rounds / per-cell timings plus solver-counter deltas) in the
	// response. The X-Unigen-Trace header carries the trace ID either
	// way.
	Trace bool `json:"trace,omitempty"`
}

// SampleHTTPResponse is the JSON body of a successful POST /sample.
// Witnesses are bitstrings over Vars in order ("101…"), the exact
// projection Sampler.SampleN would return — the encoding under which
// the cross-transport bit-identical contract is tested.
type SampleHTTPResponse struct {
	Vars        []int          `json:"vars"`
	Witnesses   []string       `json:"witnesses"`
	CacheHit    bool           `json:"cache_hit"`
	Fingerprint string         `json:"fingerprint"`
	Delta       bool           `json:"delta,omitempty"` // served through the delta path
	Stats       HTTPStatsBlock `json:"stats"`
	TraceID     string         `json:"trace_id"`
	Trace       *obs.SpanView  `json:"trace,omitempty"` // present when the request set "trace": true
}

// HTTPStatsBlock is the per-request stats subset exposed over HTTP.
type HTTPStatsBlock struct {
	Rounds       int64 `json:"rounds"`
	Samples      int64 `json:"samples"`
	Failures     int64 `json:"failures"`
	BSATCalls    int64 `json:"bsat_calls"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	XORRows      int64 `json:"xor_rows"`
}

// CountHTTPRequest is the JSON body of POST /count. Base and
// Assumptions form a delta request exactly as in SampleHTTPRequest.
type CountHTTPRequest struct {
	Formula     string `json:"formula,omitempty"`
	Base        string `json:"base,omitempty"`
	Assumptions []int  `json:"assumptions,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
}

// CountHTTPResponse is the JSON body of a successful POST /count. Count
// is decimal text (model counts overflow int64 routinely).
type CountHTTPResponse struct {
	Count       string `json:"count"`
	Exact       bool   `json:"exact"`
	CacheHit    bool   `json:"cache_hit"`
	Fingerprint string `json:"fingerprint"`
	Delta       bool   `json:"delta,omitempty"` // served through the delta path
}

// HealthzHTTPResponse is the JSON body of GET /healthz. OK stays true
// while the node can accept work ("ok" and "overloaded"); "draining"
// reports 503 with OK false so load balancers stop routing here.
// UptimeSeconds and Version identify the node a balancer is talking
// to (stale deploys and flapping restarts both show up here).
type HealthzHTTPResponse struct {
	OK            bool        `json:"ok"`
	State         HealthState `json:"state"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Version       string      `json:"version"`
}

// StatsHTTPResponse is the JSON body of GET /stats: the Stats snapshot
// as encoded.
type StatsHTTPResponse = Stats

type errorHTTPResponse struct {
	Error string `json:"error"`
}

// NewHandler returns the HTTP transport of the service:
//
//	POST /sample          {"formula": "<dimacs>", "n": 10, "seed": 1}
//	                      or delta form: {"base": "<hex fingerprint>",
//	                      "assumptions": [3, -7], "n": 10, "seed": 1}
//	POST /count           {"formula": "<dimacs>"} or the delta form
//	GET  /healthz
//	GET  /stats
//	GET  /metrics         Prometheus text exposition (DESIGN §10)
//	GET  /debug/requests  recent slow/failed requests with span trees
//
// Request contexts propagate into the solver: a client that disconnects
// mid-request interrupts its in-flight SAT search. Overload maps to
// 429 (shed) and 503 (draining, server deadline or conflict budget);
// shed and draining responses carry Retry-After: 1. Bodies naming an
// unknown field get 400, oversized bodies 413; recovered panics are
// 500. Every /sample and /count response carries an X-Unigen-Trace ID.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sample", func(w http.ResponseWriter, r *http.Request) {
		var req SampleHTTPRequest
		if !s.decodeJSONPost(w, r, &req) {
			return
		}
		src, ok := s.requestFormula(w, req.Formula, req.Base)
		if !ok {
			return
		}
		tr := obs.NewTrace()
		w.Header().Set(TraceHeader, tr.ID())
		res, err := s.sample(obs.WithTrace(r.Context(), tr), SampleRequest{
			N:           req.N,
			Seed:        req.Seed,
			Base:        req.Base,
			Assumptions: req.Assumptions,
			Tenant:      tenantOf(r, req.Tenant),
			Timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
		}, src)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		resp := SampleHTTPResponse{
			Vars:        make([]int, len(res.Vars)),
			Witnesses:   make([]string, len(res.Witnesses)),
			CacheHit:    res.CacheHit,
			Fingerprint: res.Fingerprint,
			Delta:       res.Delta,
			TraceID:     tr.ID(),
			Stats: HTTPStatsBlock{
				Rounds:       res.Stats.Rounds(),
				Samples:      res.Stats[tally.Samples],
				Failures:     res.Stats[tally.Failures],
				BSATCalls:    res.Stats[tally.BSATCalls],
				Conflicts:    res.Stats[tally.Conflicts],
				Propagations: res.Stats[tally.Propagations],
				XORRows:      res.Stats[tally.XORRows],
			},
		}
		if req.Trace {
			resp.Trace = tr.Snapshot()
		}
		for i, v := range res.Vars {
			resp.Vars[i] = int(v)
		}
		for i, a := range res.Witnesses {
			resp.Witnesses[i] = bitstring(a, res.Vars)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/count", func(w http.ResponseWriter, r *http.Request) {
		var req CountHTTPRequest
		if !s.decodeJSONPost(w, r, &req) {
			return
		}
		src, ok := s.requestFormula(w, req.Formula, req.Base)
		if !ok {
			return
		}
		tr := obs.NewTrace()
		w.Header().Set(TraceHeader, tr.ID())
		res, err := s.count(obs.WithTrace(r.Context(), tr), CountRequest{
			Base:        req.Base,
			Assumptions: req.Assumptions,
			Tenant:      tenantOf(r, req.Tenant),
			Timeout:     time.Duration(req.TimeoutMS) * time.Millisecond,
		}, src)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, CountHTTPResponse{
			Count:       res.Count.String(),
			Exact:       res.Exact,
			CacheHit:    res.CacheHit,
			Fingerprint: res.Fingerprint,
			Delta:       res.Delta,
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorHTTPResponse{Error: "use GET"})
			return
		}
		state := s.Health()
		status := http.StatusOK
		if state == HealthDraining {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		version, _ := obs.BuildVersion()
		writeJSON(w, status, HealthzHTTPResponse{
			OK:            state != HealthDraining,
			State:         state,
			UptimeSeconds: s.Uptime().Seconds(),
			Version:       version,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorHTTPResponse{Error: "use GET"})
			return
		}
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("/metrics", MetricsHandler(s))
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorHTTPResponse{Error: "use GET"})
			return
		}
		writeJSON(w, http.StatusOK, s.DebugRequests())
	})
	return recoverMiddleware(mux)
}

// MetricsHandler serves the service's registry in the Prometheus text
// exposition format — mounted at /metrics by NewHandler, and reusable
// on a separate debug listener.
func MetricsHandler(s *Service) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorHTTPResponse{Error: "use GET"})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
}

// recoverMiddleware is the transport's last-resort panic boundary: the
// service recovers panics at request and flight boundaries itself, but
// a crash in the handler plumbing (encoding, middleware) must still
// produce a 500 rather than tear down the connection servers share.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// Best effort: if the handler already wrote a status,
				// this header write is a no-op and the client sees a
				// truncated body.
				writeJSON(w, http.StatusInternalServerError, errorHTTPResponse{Error: fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// tenantOf resolves the request's tenant: the JSON field, then the
// X-Unigen-Tenant header, then the anonymous tenant "".
func tenantOf(r *http.Request, jsonTenant string) string {
	if jsonTenant != "" {
		return jsonTenant
	}
	return r.Header.Get(TenantHeader)
}

// bitstring renders a witness's projection onto vars as "01…" text.
func bitstring(a cnf.Assignment, vars []cnf.Var) string {
	var sb strings.Builder
	sb.Grow(len(vars))
	for _, v := range vars {
		if a.Get(v) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func (s *Service) decodeJSONPost(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorHTTPResponse{Error: "use POST with a JSON body"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorHTTPResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorHTTPResponse{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// requestFormula handles the formula/base duality of /sample and
// /count bodies: a delta request (base set, formula empty) carries no
// DIMACS text and parses nothing. Text the fingerprint memo holds is
// not parsed again: the service finds its cache entry by the memo's
// fingerprint. Any other formula text must parse (400 if not), even
// alongside base — the service then rejects the ambiguous combination
// as invalid.
func (s *Service) requestFormula(w http.ResponseWriter, text, base string) (formulaSrc, bool) {
	if text == "" && base != "" {
		return formulaSrc{}, true
	}
	src := formulaSrc{text: text, key: textKey(text)}
	if src.fp, src.hit = s.memo.get(src.key); src.hit {
		return src, true
	}
	f, err := cnf.ParseDIMACSString(text)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorHTTPResponse{Error: "bad formula: " + err.Error()})
		return src, false
	}
	src.f = f
	return src, true
}

// writeServiceError maps service errors onto HTTP statuses: request
// mistakes (invalid n, unsatisfiable formula, exhaustion of the
// request's own timeout) are the client's 422; shed load is 429 with
// Retry-After: 1; draining (with Retry-After: 1) and exhaustion of a
// server-configured budget (deadline or conflicts) are capacity
// policy, 503, as is a cancelled or timed-out request context;
// recovered panics and everything else are 500.
func writeServiceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrDeadline):
		writeJSON(w, http.StatusServiceUnavailable, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrClientTimeout):
		writeJSON(w, http.StatusUnprocessableEntity, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrPanic), errors.Is(err, parallel.ErrRoundPanic):
		writeJSON(w, http.StatusInternalServerError, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client disconnected or timed out; the response is moot but a
		// status keeps middleware logs sane.
		writeJSON(w, http.StatusServiceUnavailable, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, core.ErrBudget):
		writeJSON(w, http.StatusServiceUnavailable, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrUnknownBase):
		// The delta base is not prepared on this node (anymore): the
		// client must post the full formula once, then retry the delta.
		writeJSON(w, http.StatusNotFound, errorHTTPResponse{Error: err.Error()})
	case errors.Is(err, ErrInvalidRequest), errors.Is(err, core.ErrUnsat):
		writeJSON(w, http.StatusUnprocessableEntity, errorHTTPResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorHTTPResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
