package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/obs"
	"unigen/internal/randx"
)

// Delta requests (DESIGN §13): instead of re-posting a whole formula, a
// client names a prepared base by fingerprint plus a short list of
// assumption literals. The service derives a conditioned setup for
// base ∧ assumptions on a pooled session — no formula parse, no solver
// build — and caches it under the conjoined formula's own fingerprint,
// so a client posting the conjoined DIMACS wholesale hits the same
// entry and gets bit-identical witnesses.

// ErrUnknownBase tags delta requests whose base fingerprint matches no
// prepared formula in either cache tier; transports map it to 404. The
// client must (re)post the full base formula first.
var ErrUnknownBase = errors.New("service: unknown base formula fingerprint")

// defaultSessionPool is the default per-base idle-session cap
// (Config.SessionPool).
const defaultSessionPool = 8

// maxAssumptions bounds the assumption list per request; a delta that
// large should be posted as a formula.
const maxAssumptions = 4096

// deltaTotals are the service-wide delta-request counters behind
// /stats and /metrics.
type deltaTotals struct {
	requests    atomic.Int64 // delta-shaped requests received
	served      atomic.Int64 // delta requests answered successfully
	unknownBase atomic.Int64 // rejected: base not prepared anywhere
}

// DeltaStats is the delta-session block of /stats (DESIGN §13).
type DeltaStats struct {
	Requests    int64 `json:"requests"`
	Served      int64 `json:"served"`
	UnknownBase int64 `json:"unknown_base"`
	PoolHits    int64 `json:"pool_hits"`
	PoolMisses  int64 `json:"pool_misses"`
	PoolRetired int64 `json:"pool_retired"`
	PoolIdle    int64 `json:"pool_idle"`
}

func (s *Service) deltaStats() DeltaStats {
	return DeltaStats{
		Requests:    s.delta.requests.Load(),
		Served:      s.delta.served.Load(),
		UnknownBase: s.delta.unknownBase.Load(),
		PoolHits:    s.poolTot.hits.Load(),
		PoolMisses:  s.poolTot.misses.Load(),
		PoolRetired: s.poolTot.retired.Load(),
		PoolIdle:    s.poolTot.idle.Load(),
	}
}

// cacheKey builds the cache/store key for a fingerprint under the
// service's preparation parameters (shared by the formula and delta
// paths so the two can never alias differently-parameterized state).
func (s *Service) cacheKey(fp [32]byte) string {
	return fmt.Sprintf("%x|eps=%g|mc=%d|mp=%d",
		fp, s.cfg.Epsilon, s.cfg.MaxConflicts, s.cfg.MaxPropagations)
}

// parseAssumptions validates and converts signed DIMACS literals,
// returning them in canonical (sorted, deduplicated) order.
func parseAssumptions(lits []int) ([]cnf.Lit, error) {
	if len(lits) > maxAssumptions {
		return nil, fmt.Errorf("%w: %d assumptions exceed the per-request limit %d", ErrInvalidRequest, len(lits), maxAssumptions)
	}
	out := make([]cnf.Lit, 0, len(lits))
	for _, x := range lits {
		if x == 0 {
			return nil, fmt.Errorf("%w: assumption literal 0", ErrInvalidRequest)
		}
		out = append(out, cnf.FromDIMACS(x))
	}
	return core.NormalizeAssumptions(out), nil
}

// prepareDelta resolves a delta request to a prepared entry: the base
// by fingerprint, then the conditioned setup for base ∧ assumptions,
// keyed by the conjoined formula's fingerprint. Both go through the
// flight every formula request takes. The base's has no build, so a
// base neither cached nor on disk is ErrUnknownBase: the service does
// not hold the base formula, only its fingerprint. The fingerprint
// memo maps (base, assumptions) to the conjoined fingerprint, so a
// repeated delta skips Conjoin and the fingerprint; the base lookup
// still runs, keeping the base's hit count and LRU position what they
// were. The conditioned build runs on a pooled base session (warm
// solver, no build) and follows the exact cold-setup algorithm, so the
// resulting entry is interchangeable with one prepared from the
// conjoined DIMACS text. dsp (nil-safe) is the request's delta span.
func (s *Service) prepareDelta(ctx context.Context, baseHex string, assumpInts []int, dsp *obs.Span) (*prepared, bool, error) {
	s.delta.requests.Add(1)
	fpBytes, err := hex.DecodeString(baseHex)
	if err != nil || len(fpBytes) != 32 {
		return nil, false, fmt.Errorf("%w: base must be a 64-char hex fingerprint", ErrInvalidRequest)
	}
	var fp [32]byte
	copy(fp[:], fpBytes)
	assumps, err := parseAssumptions(assumpInts)
	if err != nil {
		return nil, false, err
	}
	dsp.SetInt("assumptions", int64(len(assumps)))

	base, baseHit, err := s.flight(ctx, fp, dsp, nil, nil, nil)
	if err != nil {
		if errors.Is(err, ErrUnknownBase) {
			s.delta.unknownBase.Add(1)
		}
		return nil, false, err
	}
	dsp.SetInt("base_hit", boolInt(baseHit))
	if len(assumps) == 0 {
		// Fingerprint-only request: serve the base entry itself.
		return base, baseHit, nil
	}

	mk := deltaKey(fp, assumps)
	cfp, known := s.memo.get(mk)
	var conj *cnf.Formula
	if !known {
		if conj, err = base.setup.Conjoin(assumps); err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		cfp = cnf.Fingerprint(conj)
		s.memo.put(mk, cfp)
	}
	prep, hit, err := s.flight(ctx, cfp, dsp, base, assumps, func() build {
		return func(intr *atomic.Bool) (*core.Setup, error) {
			g := conj
			if g == nil {
				// A memo hit whose entry is gone: conjoin again, which
				// succeeded on this base and these assumptions before.
				var err error
				if g, err = base.setup.Conjoin(assumps); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
				}
			}
			pool := s.poolFor(base)
			leased := pool.checkout(1)
			done := false
			// A panic that unwinds past the estimate leaves the session
			// in an unknown state: retire it instead of re-pooling it.
			defer func() { pool.checkin(leased, []bool{!done}) }()
			sess := leased[0].sess
			sess.SetAssumptions(assumps)
			// The flight interrupt, which the PrepareTimeout timer and
			// abandonment raise, stops a runaway conditioned estimate.
			sess.SetInterrupt(intr)
			cond, err := base.setup.SetupWith(sess, g, randx.New(core.PrepSeedFromFingerprint(cfp)))
			done = true
			return cond, err
		}
	})
	if err != nil {
		return nil, hit, requestErr(ctx, err)
	}
	return prep, hit, nil
}
