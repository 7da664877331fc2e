package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

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

// defaultDeltaQWindow is the default divergence window: a conditioned
// hash width q′ further than this from the base's q promotes the delta
// to a first-class prepared entry (Config.DeltaQWindow).
const defaultDeltaQWindow = 3

// maxAssumptions bounds the assumption list per request; a delta that
// large should be posted as a formula.
const maxAssumptions = 4096

// deltaTotals are the service-wide delta-request counters behind
// /stats and /metrics.
type deltaTotals struct {
	requests    atomic.Int64 // delta-shaped requests received
	served      atomic.Int64 // delta requests answered successfully
	unknownBase atomic.Int64 // rejected: base not prepared anywhere
	diverged    atomic.Int64 // conditioned setups promoted to first-class
}

// DeltaStats is the delta-session block of /stats (DESIGN §13).
type DeltaStats struct {
	Requests    int64 `json:"requests"`
	Served      int64 `json:"served"`
	UnknownBase int64 `json:"unknown_base"`
	Diverged    int64 `json:"diverged"`
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
		Diverged:    s.delta.diverged.Load(),
		PoolHits:    s.poolTot.hits.Load(),
		PoolMisses:  s.poolTot.misses.Load(),
		PoolRetired: s.poolTot.retired.Load(),
		PoolIdle:    s.poolTot.idle.Load(),
	}
}

// deltaQWindow resolves Config.DeltaQWindow (0 = default, negative =
// promote every non-easy delta).
func (s *Service) deltaQWindow() int {
	if s.cfg.DeltaQWindow == 0 {
		return defaultDeltaQWindow
	}
	if s.cfg.DeltaQWindow < 0 {
		return 0
	}
	return s.cfg.DeltaQWindow
}

// cacheKey builds the cache/store key for a fingerprint under the
// service's preparation parameters (shared by the formula and delta
// paths so the two can never alias differently-parameterized state).
func (s *Service) cacheKey(fp [32]byte) string {
	return fmt.Sprintf("%x|eps=%g|gj=%t|mc=%d|mp=%d",
		fp, s.cfg.Epsilon, s.cfg.GaussJordan, s.cfg.MaxConflicts, s.cfg.MaxPropagations)
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

// resolveBase fetches the prepared entry for a base fingerprint: RAM
// hit, else a disk rehydrate, else ErrUnknownBase. The miss path runs
// as a normal single-flight (so concurrent delta requests for one base
// probe the disk once), but never cold-prepares — the service does not
// hold the base formula, only its fingerprint.
func (s *Service) resolveBase(ctx context.Context, fp [32]byte) (*prepared, bool, error) {
	key := s.cacheKey(fp)
	return s.cache.get(ctx, key, func(intr *atomic.Bool) func() (*prepared, error) {
		return func() (*prepared, error) {
			if s.store != nil {
				if p, ok := s.rehydrate(key, fp); ok {
					return p, nil
				}
			}
			return nil, fmt.Errorf("%w: %x", ErrUnknownBase, fp)
		}
	})
}

// prepareDelta resolves a delta request to a prepared entry: the base
// by fingerprint, then the conditioned setup for base ∧ assumptions
// through the same single-flight cache, keyed by the conjoined
// formula's fingerprint. The fingerprint memo maps (base, assumptions)
// to that fingerprint, so a repeated delta skips Conjoin and the
// fingerprint; the base lookup still runs, keeping the base's hit
// count and LRU position what they were. The conditioned flight runs
// on a pooled base session (warm solver, no build) and follows the
// exact cold-setup algorithm, so the resulting entry is
// interchangeable with one prepared from the conjoined DIMACS text.
// dsp (nil-safe) is the request's delta span.
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

	base, baseHit, err := s.resolveBase(ctx, fp)
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
	ckey := s.cacheKey(cfp)
	prep, hit, err := s.cache.get(ctx, ckey, func(intr *atomic.Bool) func() (*prepared, error) {
		pool := s.poolFor(base)
		return func() (*prepared, error) {
			// Disk tier first, as in a formula flight: after a restart
			// the conjoined entry this flight persisted answers with no
			// solver work, and serves as the delta it was.
			if s.store != nil {
				ssp := dsp.StartSpan("store")
				p, ok := s.rehydrate(ckey, cfp)
				ssp.SetInt("hit", boolInt(ok))
				ssp.End()
				if ok {
					s.markDelta(p, base, assumps)
					return p, nil
				}
			}
			g := conj
			if g == nil {
				// A memo hit whose entry is gone: conjoin again, which
				// succeeded on this base and these assumptions before.
				var err error
				if g, err = base.setup.Conjoin(assumps); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
				}
			}
			// Same wall-clock budget contract as a cold flight: the timer
			// raises the flight interrupt (which the pooled session is
			// pointed at below), so a runaway conditioned estimate stops
			// at the deadline.
			var timedOut atomic.Bool
			if pt := s.cfg.PrepareTimeout; pt > 0 {
				t := time.AfterFunc(pt, func() {
					timedOut.Store(true)
					intr.Store(true)
				})
				defer t.Stop()
			}
			leased := pool.checkout(1)
			ps := leased[0]
			done := false
			defer func() {
				if done {
					pool.checkin(leased, nil)
				} else {
					// A panic unwound past the estimate: the session's
					// state is unknown, retire it.
					pool.retire(ps)
				}
			}()
			ps.sess.SetAssumptions(assumps)
			ps.sess.SetInterrupt(intr)
			cond, serr := base.setup.SetupWith(ps.sess, g, randx.New(core.PrepSeedFromFingerprint(cfp)))
			done = true
			if serr != nil {
				if timedOut.Load() {
					return nil, fmt.Errorf("%w: conditioned preparation exceeded %v: %v", ErrDeadline, s.cfg.PrepareTimeout, serr)
				}
				return nil, serr
			}
			p := &prepared{
				setup:       cond,
				prepStats:   cond.SetupStats(),
				key:         ckey,
				fingerprint: hex.EncodeToString(cfp[:]),
			}
			s.markDelta(p, base, assumps)
			// Write-behind like any prepared formula: after a restart the
			// conjoined entry rehydrates, for a delta request as the delta
			// it was and for a full-formula request as a plain formula
			// entry.
			s.persist(p)
			return p, nil
		}
	})
	if err != nil {
		return nil, hit, requestErr(ctx, err)
	}
	dsp.SetInt("diverged", boolInt(prep.diverged))
	return prep, hit, nil
}

// markDelta makes p, the conditioned entry for base ∧ assumps, a delta
// entry of base: one that samples through base's session pool, unless
// its count diverged from the base's. Then it is promoted to a
// first-class entry (own sessions, no base-pool affinity). The setup is
// full-fidelity either way; this is a pool-hygiene policy, not a
// correctness fallback.
func (s *Service) markDelta(p, base *prepared, assumps []cnf.Lit) {
	p.delta = true
	p.baseFP = base.fingerprint
	if p.setup.DivergedFrom(base.setup, s.deltaQWindow()) {
		p.diverged = true
		s.delta.diverged.Add(1)
	} else {
		p.base = base
		p.assumps = assumps
	}
}
