package service

import (
	"sync"
	"sync/atomic"

	"unigen/internal/bsat"
	"unigen/internal/core"
)

// poolTotals are the service-wide session-pool counters, shared by
// every per-base pool so /stats and /metrics report one fleet view.
type poolTotals struct {
	hits    atomic.Int64 // check-outs served from idle sessions
	misses  atomic.Int64 // check-outs that had to build a fresh session
	retired atomic.Int64 // sessions dropped at check-in (doomed or overflow)
	idle    atomic.Int64 // sessions currently parked across all pools
}

// sessionPool lends per-worker bsat sessions over one prepared base
// setup to delta requests (DESIGN §13 state machine: idle → checked-out
// → returned | retired). Sessions are never shared: between check-out
// and check-in exactly one borrower owns it, and points it at its own
// interrupt flag (a SampleN call's, or a conditioned build's flight
// flag). Check-in is where hygiene lives: standing assumptions cleared
// and the interrupt detached, so no request can observe the previous
// request's raised interrupt or assumption set. Every session runs at
// the base setup's budgets, so there are none to reset. A session keeps
// its one solver for life (bsat recycles its guard variable per call);
// sessions a round panicked on are retired instead of re-pooled.
type sessionPool struct {
	su  *core.Setup
	max int // idle-list cap; overflow check-ins retire the session
	tot *poolTotals

	mu   sync.Mutex
	idle []*bsat.Session
}

func newSessionPool(su *core.Setup, max int, tot *poolTotals) *sessionPool {
	return &sessionPool{su: su, max: max, tot: tot}
}

// Checkout returns n sessions for exclusive use, reusing idle ones
// (warm solver state: the base formula ingested, learned clauses
// accumulated) and building the rest fresh.
func (p *sessionPool) Checkout(n int) []*bsat.Session {
	out := make([]*bsat.Session, 0, n)
	p.mu.Lock()
	for len(out) < n && len(p.idle) > 0 {
		out = append(out, p.idle[len(p.idle)-1])
		p.idle = p.idle[:len(p.idle)-1]
	}
	p.mu.Unlock()
	p.tot.hits.Add(int64(len(out)))
	p.tot.idle.Add(-int64(len(out)))
	for len(out) < n {
		p.tot.misses.Add(1)
		out = append(out, p.su.NewSession())
	}
	return out
}

// Checkin returns sessions to the pool after scrubbing request state.
// doomed (nil-safe, indexed like ss) marks sessions a sampling round or
// a conditioned build panicked on; those are retired. Overflow beyond
// the idle cap is retired too — the solver is just garbage then.
func (p *sessionPool) Checkin(ss []*bsat.Session, doomed []bool) {
	for i, sess := range ss {
		if doomed != nil && i < len(doomed) && doomed[i] {
			p.tot.retired.Add(1)
			continue
		}
		sess.SetAssumptions(nil)
		sess.SetInterrupt(nil)
		p.mu.Lock()
		if len(p.idle) < p.max {
			p.idle = append(p.idle, sess)
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
		prep.pool = newSessionPool(prep.setup, max, &s.poolTot)
	})
	return prep.pool
}
