package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"unigen/internal/bsat"
)

// The ApproxMC rounds of a setup run on its caller's session and on one
// helper session for each token taken from one process-wide pool
// (DESIGN §15, "Rounds on several sessions"). The pool holds
// GOMAXPROCS−1 tokens, so the setups running at once search on their
// callers' goroutines plus at most GOMAXPROCS−1 helpers between them.
// Tokens are taken without blocking: a setup that finds none runs its
// rounds on its own session, as one with GOMAXPROCS = 1 does.
var tokens struct {
	sync.Mutex
	used int
}

// takeTokens takes up to n tokens without blocking. It returns how
// many it took and the function that gives them back.
func takeTokens(n int) (int, func()) {
	tokens.Lock()
	defer tokens.Unlock()
	k := max(min(n, runtime.GOMAXPROCS(0)-1-tokens.used), 0)
	tokens.used += k
	return k, func() {
		tokens.Lock()
		tokens.used -= k
		tokens.Unlock()
	}
}

// sessionTokens is takeTokens. Tests replace it to run the rounds on a
// fixed number of sessions.
var sessionTokens = takeTokens

// newSessions returns a function that builds n fresh sessions with
// NewSession and points each at intr.
func (su *Setup) newSessions(intr *atomic.Bool) func(n int) []*bsat.Session {
	return func(n int) []*bsat.Session {
		ss := make([]*bsat.Session, n)
		for i := range ss {
			ss[i] = su.NewSession()
			ss[i].SetInterrupt(intr)
		}
		return ss
	}
}
