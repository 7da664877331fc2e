// Package parallel is the worker-pool sampling engine over UniGen's
// core. The DAC'14 paper's central scalability argument is that after
// the one-time ApproxMC setup every sample is drawn independently — the
// loop is embarrassingly parallel. This package industrializes that
// observation (as the UniGen2 line of work did): the setup runs once,
// and sampling rounds fan out over a pool of workers, each owning a
// private incremental bsat.Session (solvers are not thread-safe) and
// executing rounds with RNG streams split deterministically from one
// master seed.
//
// # Determinism
//
// Round i of a run — whichever worker executes it — uses
// randx.Stream(masterSeed, i) as its RNG, and the core canonically
// orders each accepted cell before the uniform index pick, so a round's
// outcome is a function of the round index and the master seed alone,
// not of worker count, scheduling, or the executing session's solver
// history. SampleN consumes rounds strictly in index order, so for a
// fixed master seed the multiset of returned samples (projected onto
// the sampling set) and the merged Stats are identical for 1, 2, or N
// workers. The one caveat: conflict-budget exhaustion (sat.Config
// budgets) depends on accumulated solver state, so a run in which
// budgets fire may retry rounds differently across pool shapes —
// retries still only consume the round's own stream, never a
// neighbour's.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

// ErrRoundPanic wraps a panic recovered at a sampling-round boundary.
// A panicking round — a solver bug, a corrupted session — fails its
// request with this error instead of killing the process (or, in a
// worker pool, silently deadlocking the collector). The session that
// panicked is not reused for further rounds of the same call; the
// request aborts, and later requests build fresh sessions.
var ErrRoundPanic = errors.New("parallel: sampling round panicked")

// runRound executes one sampling round, converting a panic into
// ErrRoundPanic. This is the failure-isolation boundary of the engine:
// everything below it (core, bsat, sat) may panic without taking down
// the daemon. sp, when non-nil, receives per-cell child spans from the
// core (obs tracing); a panic still ends the round's span upstream.
func runRound(su *core.Setup, sess *bsat.Session, rng *randx.RNG, st *core.Stats, sp *obs.Span) (w cnf.Assignment, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrRoundPanic, r)
		}
	}()
	return su.SampleRound(sess, rng, st, sp)
}

// traceRound opens a "round" span under the context-carried span and
// returns a closure finishing it with the round's solver-work delta.
// When ctx carries no span both returns are nil-safe no-ops — the
// disarmed path costs one context lookup per round.
func traceRound(parent *obs.Span, absIdx uint64) (*obs.Span, func(st *core.Stats, err error)) {
	sp := parent.StartSpan("round")
	if sp == nil {
		return nil, func(*core.Stats, error) {}
	}
	return sp, func(st *core.Stats, err error) {
		sp.SetInt("idx", int64(absIdx))
		sp.SetInt("bsat_calls", st[tally.BSATCalls])
		sp.SetInt("conflicts", st[tally.Conflicts])
		sp.SetInt("propagations", st[tally.Propagations])
		sp.SetInt("xor_rows", st[tally.XORRows])
		if err != nil {
			sp.SetInt("failed", 1)
		}
		sp.End()
	}
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size: the number of private solver sessions
	// sampling rounds are fanned out over. 0 defaults to
	// runtime.GOMAXPROCS(0). 1 is a valid degenerate pool (useful for
	// determinism tests and as the ctx-aware single-threaded path).
	Workers int
	// MasterSeed roots the per-round RNG streams (see the package
	// comment). The setup-phase RNG is NOT derived from it: NewEngine
	// seeds setup from the formula fingerprint (core.PrepSeed), so the
	// prepared state is a function of the formula alone and a cached
	// Setup can serve any master seed (see NewEngineFromSetup).
	MasterSeed uint64
	// Core is forwarded to the shared core.Setup. Core.Solver.Interrupt
	// is overwritten: the engine installs its own flag so SampleN can
	// abort in-flight BSAT calls on context cancellation.
	// NewEngineFromSetup ignores every Core field except the
	// Solver.MaxConflicts / Solver.MaxPropagations budget overrides.
	Core core.Options
}

// roundResult carries one finished round from a worker to the
// collector.
type roundResult struct {
	idx   uint64 // round index, relative to the SampleN call
	w     cnf.Assignment
	stats core.Stats
	err   error
}

// Engine runs UniGen sampling rounds over a pool of per-worker solver
// sessions sharing one Setup. Construct with NewEngine; an Engine is
// meant to be used from one goroutine at a time (the pool parallelism
// is internal).
type Engine struct {
	setup    *core.Setup
	sessions []*bsat.Session // one per worker, owned exclusively during SampleN
	seed     uint64
	next     uint64         // absolute index of the first round of the next SampleN
	stats    core.Stats     // setup stats merged with all consumed round deltas
	intr     *atomic.Bool   // shared by every session's solver config
	flags    []*atomic.Bool // every interrupt flag raised/cleared together
	doomed   []bool         // per-session: a round panicked on this session
}

// raiseIntr and clearIntr flip every interrupt flag the engine's
// sessions listen on. Engines built by NewEngine/NewEngineFromSetup
// have a single shared flag; leased (pooled) sessions each carry their
// own, so cancellation must fan out.
func (e *Engine) raiseIntr() {
	for _, f := range e.flags {
		f.Store(true)
	}
}

func (e *Engine) clearIntr() {
	for _, f := range e.flags {
		f.Store(false)
	}
}

// NewEngine runs the ApproxMC setup once and builds one solver session
// per worker. The setup RNG is seeded from the formula fingerprint
// (core.PrepSeed), not from MasterSeed: the prepared state for a
// formula is identical whatever seed the caller samples with, which is
// what lets the service layer hand a cached Setup to requests with
// arbitrary seeds and still return bit-identical samples (DESIGN §8).
func NewEngine(f *cnf.Formula, opts Options) (*Engine, error) {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{seed: opts.MasterSeed, intr: new(atomic.Bool)}
	e.flags = []*atomic.Bool{e.intr}
	co := opts.Core
	co.Solver.Interrupt = e.intr
	su, err := core.NewSetup(f, randx.New(core.PrepSeed(f, co.SamplingSet)), co)
	if err != nil {
		return nil, err
	}
	e.setup = su
	e.stats = su.SetupStats()
	e.sessions = make([]*bsat.Session, w)
	for i := range e.sessions {
		e.sessions[i] = su.NewSession()
	}
	e.doomed = make([]bool, w)
	return e, nil
}

// NewEngineFromSetup builds an engine around an existing prepared Setup
// — the service layer's cache-hit path, where the expensive ApproxMC
// setup already ran (under the fingerprint-derived RNG NewEngine uses)
// and only per-request sessions need constructing. The engine gets a
// private interrupt flag, so cancelling its calls never disturbs other
// engines sharing the Setup; sessions are built with the setup's solver
// configuration, with opts.Core.Solver.MaxConflicts/MaxPropagations
// overriding the budgets when non-zero (per-request budgets). Unlike
// NewEngine the returned engine's Stats start at zero: the shared setup
// phase is accounted once by the cache owner, not per request.
func NewEngineFromSetup(su *core.Setup, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{setup: su, seed: opts.MasterSeed, intr: new(atomic.Bool)}
	e.flags = []*atomic.Bool{e.intr}
	cfg := su.SolverConfig()
	if mc := opts.Core.Solver.MaxConflicts; mc != 0 {
		cfg.MaxConflicts = mc
	}
	if mp := opts.Core.Solver.MaxPropagations; mp != 0 {
		cfg.MaxPropagations = mp
	}
	cfg.Interrupt = e.intr
	e.sessions = make([]*bsat.Session, w)
	for i := range e.sessions {
		e.sessions[i] = su.NewSessionWith(cfg)
	}
	e.doomed = make([]bool, w)
	return e
}

// Lease is a checked-out pooled session handed to NewEngineWithSessions:
// the session (typically carrying standing assumption literals for a
// delta request) plus the private interrupt flag its solver polls.
type Lease struct {
	Sess *bsat.Session
	Intr *atomic.Bool
}

// NewEngineWithSessions builds an engine over caller-owned sessions —
// the delta-request path, where a session pool lends per-worker sessions
// that already carry the request's assumptions and budgets. The pool
// size is len(leases). The engine raises and clears every lease's
// interrupt flag together for cancellation, but never touches budgets or
// assumptions: check-out/check-in hygiene is the pool's job. After
// SampleN returns, Doomed reports which leased sessions a round panicked
// on, so the pool can retire them instead of re-pooling corrupted state.
func NewEngineWithSessions(su *core.Setup, leases []Lease, masterSeed uint64) *Engine {
	e := &Engine{setup: su, seed: masterSeed, intr: new(atomic.Bool)}
	e.flags = []*atomic.Bool{e.intr}
	e.sessions = make([]*bsat.Session, len(leases))
	for i, l := range leases {
		e.sessions[i] = l.Sess
		if l.Intr != nil {
			e.flags = append(e.flags, l.Intr)
		}
	}
	e.doomed = make([]bool, len(leases))
	return e
}

// Doomed reports, per worker session, whether a sampling round panicked
// on it during this engine's lifetime. Valid after SampleN returns;
// session pools consult it at check-in.
func (e *Engine) Doomed() []bool { return e.doomed }

// Workers returns the pool size.
func (e *Engine) Workers() int { return len(e.sessions) }

// Setup returns the shared once-per-formula state.
func (e *Engine) Setup() *core.Setup { return e.setup }

// Stats returns the merged statistics: the setup phase plus every round
// consumed by SampleN calls so far. core.Stats.Merge is order-
// insensitive (all counters are integers), and the consumed round
// prefix depends only on the master seed, so the value is reproducible
// for a fixed seed at any worker count. A call that succeeds starts no
// round it does not consume, so every round it ran is included; only a
// call aborted by an error leaves the rounds after the failing one out.
func (e *Engine) Stats() core.Stats { return e.stats }

// SampleN draws n almost-uniform witnesses using the worker pool,
// transparently skipping ⊥ rounds. Each worker executes one round at a
// time and takes the next round index from a gate that admits round idx
// only while idx < n + (⊥ rounds consumed so far): no round starts past
// the one that could hold the n-th witness, so a call that succeeds
// runs exactly the rounds it consumes. Results are consumed in
// round-index order, so the returned multiset is deterministic for a
// fixed master seed (see the package comment).
//
// On ctx cancellation the engine raises the shared solver interrupt
// flag — in-flight BSAT calls return promptly, as if their conflict
// budget had been exhausted — and SampleN returns the witnesses
// completed so far together with ctx.Err(). Other hard errors
// (ErrBudget, unsatisfiable formula) abort the same way.
func (e *Engine) SampleN(ctx context.Context, n int) ([]cnf.Assignment, error) {
	if n <= 0 {
		return nil, errors.New("parallel: sample count must be positive")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.clearIntr()

	// Forward ctx cancellation to every in-flight solver call.
	watchDone := make(chan struct{})
	watcherGone := make(chan struct{})
	go func() {
		defer close(watcherGone)
		select {
		case <-ctx.Done():
			e.raiseIntr()
		case <-watchDone:
		}
	}()

	var (
		results = make(chan roundResult, 2*len(e.sessions))
		wg      sync.WaitGroup

		// The gate: rounds [0, limit) may start. The collector raises
		// limit by one per consumed ⊥ and sets stopped when it is done.
		mu      sync.Mutex
		gate    = sync.NewCond(&mu)
		limit   = uint64(n)
		started uint64 // next round index (relative) to hand out
		stopped bool
	)
	// take blocks until the next round may start and returns its index,
	// or false once the collector has stopped the pool.
	take := func() (uint64, bool) {
		mu.Lock()
		defer mu.Unlock()
		for started >= limit && !stopped {
			gate.Wait()
		}
		if stopped {
			return 0, false
		}
		started++
		return started - 1, true
	}
	parentSpan := obs.SpanFrom(ctx)
	for wi, sess := range e.sessions {
		wg.Add(1)
		go func(wi int, sess *bsat.Session) {
			defer wg.Done()
			for {
				idx, ok := take()
				if !ok {
					return
				}
				rng := randx.Stream(e.seed, e.next+idx)
				var st core.Stats
				sp, endRound := traceRound(parentSpan, e.next+idx)
				w, err := runRound(e.setup, sess, rng, &st, sp)
				endRound(&st, err)
				if errors.Is(err, ErrRoundPanic) {
					// Written only by this worker, read after wg.Wait:
					// the panicked session must not return to a pool.
					e.doomed[wi] = true
				}
				if err != nil && !errors.Is(err, ErrRoundPanic) && ctx.Err() != nil {
					// Interrupt-induced budget errors masquerade as
					// ErrBudget; report the cancellation instead. Panics
					// are never masked: a crash is a crash, cancelled or
					// not.
					err = ctx.Err()
				}
				results <- roundResult{idx: idx, w: w, stats: st, err: err}
			}
		}(wi, sess)
	}

	// Collector: consume rounds strictly in index order — that is what
	// pins which rounds constitute the run, making the witness multiset
	// (and the stats merged over exactly those rounds) independent of
	// pool shape. The gate keeps every started round inside the prefix
	// a successful call consumes; after a hard error the rounds beyond
	// it are discarded entirely, witnesses and stats.
	var (
		out      []cnf.Assignment
		firstErr error
		pending  = map[uint64]roundResult{}
		consume  uint64 // next round index to consume
	)
collect:
	for len(out) < n {
		res, ok := pending[consume]
		if !ok {
			r := <-results
			if r.idx != consume {
				pending[r.idx] = r
				continue
			}
			res = r
		} else {
			delete(pending, consume)
		}
		consume++
		e.stats = e.stats.Merge(res.stats)
		switch {
		case res.err == nil:
			out = append(out, res.w)
		case errors.Is(res.err, core.ErrFailed):
			// ⊥ round: counted in stats; admit one more round.
			mu.Lock()
			limit++
			mu.Unlock()
			gate.Signal()
		default:
			firstErr = res.err
			break collect
		}
	}

	// Shut the pool down without stranding a worker at the gate or on a
	// full results channel: wake the gate, then drain until every worker
	// has exited.
	mu.Lock()
	stopped = true
	mu.Unlock()
	gate.Broadcast()
	if firstErr != nil {
		e.raiseIntr() // hasten rounds past the failed one; discarded anyway
	}
	go func() {
		for range results {
		}
	}()
	wg.Wait()
	close(results)
	close(watchDone)
	<-watcherGone
	e.clearIntr()

	// Later SampleN calls continue the round stream where this call's
	// consumed prefix ended, preserving end-to-end reproducibility of
	// multi-call runs.
	e.next += consume
	return out, firstErr
}
