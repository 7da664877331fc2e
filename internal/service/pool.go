package service

import (
	"sync"
	"sync/atomic"

	"unigen/internal/bsat"
	"unigen/internal/core"
	"unigen/internal/sat"
)

// poolTotals are the service-wide session-pool counters, shared by
// every per-base pool so /stats and /metrics report one fleet view.
type poolTotals struct {
	hits    atomic.Int64 // check-outs served from idle sessions
	misses  atomic.Int64 // check-outs that had to build a fresh session
	retired atomic.Int64 // sessions dropped at check-in (doomed or overflow)
	idle    atomic.Int64 // sessions currently parked across all pools
}

// pooledSession is one lendable session plus the private interrupt flag
// its solver polls. Sessions are never shared: between check-out and
// check-in exactly one request owns it.
type pooledSession struct {
	sess *bsat.Session
	intr *atomic.Bool
}

// sessionPool lends per-worker bsat sessions over one prepared base
// setup to delta requests (DESIGN §13 state machine: idle → checked-out
// → returned | retired). Check-in is where hygiene lives: standing
// assumptions cleared, interrupt flag lowered and re-pointed at the
// session's own, budgets reset to the service-wide defaults — so no
// request can observe the previous request's raised interrupt, tightened
// conflict budget, or assumption set. Solver-level taint is the
// session's own concern (bsat rebuilds internally); sessions a round
// panicked on are retired instead of re-pooled.
type sessionPool struct {
	su  *core.Setup
	cfg sat.Config // service-wide budgets; Interrupt overridden per session
	max int        // idle-list cap; overflow check-ins retire the session
	tot *poolTotals

	mu   sync.Mutex
	idle []*pooledSession
}

func newSessionPool(su *core.Setup, cfg sat.Config, max int, tot *poolTotals) *sessionPool {
	cfg.Interrupt = nil // each pooled session gets a private flag
	return &sessionPool{su: su, cfg: cfg, max: max, tot: tot}
}

// checkout returns n sessions for exclusive use, reusing idle ones
// (warm solver state: the base formula ingested, learned clauses
// accumulated) and building the rest fresh.
func (p *sessionPool) checkout(n int) []*pooledSession {
	out := make([]*pooledSession, 0, n)
	p.mu.Lock()
	for len(out) < n && len(p.idle) > 0 {
		ps := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		out = append(out, ps)
	}
	p.mu.Unlock()
	p.tot.hits.Add(int64(len(out)))
	p.tot.idle.Add(-int64(len(out)))
	for len(out) < n {
		p.tot.misses.Add(1)
		intr := new(atomic.Bool)
		cfg := p.cfg
		cfg.Interrupt = intr
		out = append(out, &pooledSession{sess: p.su.NewSessionWith(cfg), intr: intr})
	}
	return out
}

// checkin returns sessions to the pool after scrubbing request state.
// doomed (nil-safe, indexed like ps) marks sessions a sampling round or
// a conditioned build panicked on; those are retired. Overflow beyond
// the idle cap is retired too — the solver is just garbage then.
func (p *sessionPool) checkin(ps []*pooledSession, doomed []bool) {
	for i, s := range ps {
		if doomed != nil && i < len(doomed) && doomed[i] {
			p.tot.retired.Add(1)
			continue
		}
		s.sess.SetAssumptions(nil)
		s.sess.SetInterrupt(s.intr)
		s.sess.SetBudgets(p.cfg.MaxConflicts, p.cfg.MaxPropagations)
		s.intr.Store(false)
		p.mu.Lock()
		if len(p.idle) < p.max {
			p.idle = append(p.idle, s)
			p.mu.Unlock()
			p.tot.idle.Add(1)
			continue
		}
		p.mu.Unlock()
		p.tot.retired.Add(1)
	}
}

// poolFor returns prep's session pool, building it on first use.
func (s *Service) poolFor(prep *prepared) *sessionPool {
	prep.poolOnce.Do(func() {
		max := s.cfg.SessionPool
		if max <= 0 {
			max = defaultSessionPool
		}
		cfg := prep.setup.SolverConfig()
		prep.pool = newSessionPool(prep.setup, cfg, max, &s.poolTot)
	})
	return prep.pool
}
