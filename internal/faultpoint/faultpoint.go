// Package faultpoint provides named fault-injection points for the
// chaos test suite. Production code calls Fire (or FireWait) at a
// handful of catalogued sites; when the point is disarmed — always,
// outside tests — the call is a single atomic load and returns nil.
// Tests arm a point with a Fault describing what should go wrong
// (a stall, an error, a panic) and for how many hits, then hammer the
// service and assert it degrades instead of melting.
//
// The package is deliberately global: the sites live in internal/bsat,
// internal/core, and internal/service, far below where a test holds a
// handle, and a request crosses all of those layers. Tests that arm
// points must not run in parallel with each other and must Reset (or
// Disarm) what they armed; the zero state is fully inert.
//
// # Point catalog
//
//   - PrepareSlow: start of a formula flight's build (service cache
//     and disk-tier miss), before core.NewSetup. A Delay here models a
//     slow ApproxMC setup; the stall honors the flight's interrupt.
//   - PreparePanic: same site, after PrepareSlow. A Panic here models a
//     crash inside preparation; the flight recover must convert it to an
//     error, fail every co-waiter, and leave the cache unpoisoned.
//   - RequestPanic: top of Service.Sample / Service.Count, after
//     validation. Tests the request-boundary recover (HTTP 500).
//   - SolverStall: top of bsat.Session.Enumerate. A Delay models a BSAT
//     call that hangs; the stall polls the session's solver interrupt,
//     so deadline budgets and drain still cut it short, and an
//     interrupted stall reports budget exhaustion exactly like an
//     interrupted real search.
//   - SolverUnsat: same site. An Err here makes the call report an
//     empty cell (spurious UNSAT) — rounds see ⊥ and retry.
//   - RoundPanic: top of core.Setup.SampleRound. Tests the parallel
//     engine's worker recover (a panicking round must fail the request,
//     not the process).
package faultpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Catalogued injection points. Arming an uncatalogued name is allowed
// (the registry is just a map) but pointless: nothing Fires it.
const (
	PrepareSlow  = "service.prepare.slow"
	PreparePanic = "service.prepare.panic"
	RequestPanic = "service.request.panic"
	SolverStall  = "bsat.enumerate.stall"
	SolverUnsat  = "bsat.enumerate.unsat"
	RoundPanic   = "core.round.panic"
)

// ErrInterrupted is returned by FireWait when the caller's stop
// predicate cut an injected stall short — the injected fault was
// interrupted, exactly as a real stalled solver call would be.
var ErrInterrupted = errors.New("faultpoint: injected stall interrupted")

// Fault describes what an armed point does when hit.
type Fault struct {
	// Delay stalls the caller before any other effect. FireWait makes
	// the stall interruptible; Fire sleeps it out.
	Delay time.Duration
	// Err is returned after the delay (nil: return normally).
	Err error
	// Panic, when non-empty, panics after the delay with this message
	// (instead of returning Err).
	Panic string
	// Skip ignores the first Skip hits of the point.
	Skip int
	// Count fires the fault at most Count times after Skip; 0 means
	// every hit.
	Count int
}

type point struct {
	f     Fault
	hits  int64 // times the point was reached while armed
	fired int64 // times the fault actually triggered
}

var (
	armed  atomic.Int32 // number of armed points; 0 is the fast path
	mu     sync.Mutex
	points = map[string]*point{}
)

// Arm installs f at the named point, replacing any previous fault (and
// resetting its hit counters).
func Arm(name string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armed.Add(1)
	}
	points[name] = &point{f: f}
}

// Disarm removes the named point; a no-op if it is not armed.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
}

// Fired reports how many times the named point's fault has triggered
// since it was armed (0 if not armed).
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return 0
}

// Hits reports how many times the named point was reached since it was
// armed, whether or not the fault triggered.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Fire triggers the named point: disarmed, it returns nil after one
// atomic load; armed, it sleeps Delay, then panics or returns the
// fault's Err. The injection site decides what the error means (a
// budget exhaustion, an empty cell, …).
func Fire(name string) error { return FireWait(name, nil) }

// FireWait is Fire with an interruptible stall: while sleeping Delay it
// polls stop (when non-nil) about once a millisecond and returns
// ErrInterrupted as soon as it reports true. Sites under an interrupt
// contract (solver calls) pass their interrupt flag so injected stalls
// respect deadlines and drain like real work does.
func FireWait(name string, stop func() bool) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	var f Fault
	fire := false
	if ok {
		p.hits++
		if p.hits > int64(p.f.Skip) && (p.f.Count == 0 || p.fired < int64(p.f.Count)) {
			p.fired++
			fire = true
			f = p.f
		}
	}
	mu.Unlock()
	if !fire {
		return nil
	}
	if f.Delay > 0 {
		if stop == nil {
			time.Sleep(f.Delay)
		} else {
			deadline := time.Now().Add(f.Delay)
			for time.Now().Before(deadline) {
				if stop() {
					return ErrInterrupted
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if f.Panic != "" {
		panic(fmt.Sprintf("faultpoint %s: %s", name, f.Panic))
	}
	return f.Err
}
