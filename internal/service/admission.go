package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Robustness sentinels. Transports map them onto HTTP statuses; the
// service's outcome counters classify by them.
var (
	// ErrOverloaded tags load-shedding: the concurrency gate and its
	// bounded wait queue are full, the queue wait expired, or a tenant
	// exceeded its in-flight quota. Transports answer 429 with a
	// Retry-After hint — the request was well-formed, the node just
	// cannot take it right now.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrDraining tags requests rejected (or cut short) because the
	// service is shutting down. Transports answer 503: try another node.
	ErrDraining = errors.New("service: draining")
	// ErrDeadline tags the server-side request deadline
	// (Config.DefaultTimeout) or preparation deadline
	// (Config.PrepareTimeout) firing — capacity policy, like a server
	// conflict budget, so transports answer 503.
	ErrDeadline = errors.New("service: server deadline exceeded")
	// ErrClientTimeout tags the deadline the request itself asked for
	// (SampleRequest.Timeout) firing — exhaustion of a budget the client
	// supplied, so transports answer 422, like a client conflict budget.
	ErrClientTimeout = errors.New("service: client timeout exceeded")
	// ErrPanic tags a panic recovered at a request or preparation
	// boundary. Transports answer 500; the panicking flight's result is
	// never cached.
	ErrPanic = errors.New("service: internal panic")
)

// admission is the bounded concurrency gate in front of the request
// scheduler: MaxInFlight slots, a bounded wait queue of MaxQueue
// requests that hold on for up to QueueWait, and per-tenant in-flight
// quotas. Everything beyond that is shed immediately with
// ErrOverloaded — the service degrades to fast, client-visible
// rejections instead of queueing itself to death. A nil slots channel
// means the gate is off (Config.MaxInFlight == 0), leaving only the
// tenant quota, if any.
type admission struct {
	slots       chan struct{} // buffered to MaxInFlight; len() = in flight
	maxQueue    int64
	queueWait   time.Duration
	tenantQuota int

	queued    atomic.Int64 // requests currently waiting for a slot
	maxQueued atomic.Int64 // high-water mark of queued (bounded-depth proof)

	shedFull   atomic.Int64 // rejected: queue already full
	shedWait   atomic.Int64 // rejected: no slot within QueueWait
	shedTenant atomic.Int64 // rejected: tenant over quota

	mu      sync.Mutex
	tenants map[string]int // tenant → in-flight count
}

func newAdmission(cfg Config) *admission {
	a := &admission{tenantQuota: cfg.TenantQuota, tenants: map[string]int{}}
	if cfg.MaxInFlight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInFlight)
		a.maxQueue = int64(cfg.MaxQueue)
		a.queueWait = cfg.QueueWait
		if a.queueWait <= 0 {
			a.queueWait = 2 * time.Second
		}
	}
	return a
}

// acquire admits one request for tenant, blocking in the bounded queue
// when all slots are busy. On success the returned release must be
// called exactly once. On failure it returns ErrOverloaded (shed) or
// the context's cancellation cause (client gone, drain).
func (a *admission) acquire(ctx context.Context, tenant string) (release func(), err error) {
	if a.tenantQuota > 0 {
		a.mu.Lock()
		if a.tenants[tenant] >= a.tenantQuota {
			a.mu.Unlock()
			a.shedTenant.Add(1)
			return nil, fmt.Errorf("%w: tenant %q already has %d requests in flight (quota)", ErrOverloaded, tenant, a.tenantQuota)
		}
		a.tenants[tenant]++
		a.mu.Unlock()
	}
	releaseTenant := func() {
		if a.tenantQuota > 0 {
			a.mu.Lock()
			if a.tenants[tenant] <= 1 {
				delete(a.tenants, tenant)
			} else {
				a.tenants[tenant]--
			}
			a.mu.Unlock()
		}
	}
	if a.slots == nil {
		return releaseTenant, nil
	}

	// Fast path: a slot is free right now.
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots; releaseTenant() }, nil
	default:
	}

	// All slots busy: join the bounded queue or shed on the spot.
	if !a.enqueue() {
		releaseTenant()
		a.shedFull.Add(1)
		return nil, fmt.Errorf("%w: %d in flight, queue of %d full", ErrOverloaded, len(a.slots), a.maxQueue)
	}
	timer := time.NewTimer(a.queueWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.queued.Add(-1)
		return func() { <-a.slots; releaseTenant() }, nil
	case <-timer.C:
		a.queued.Add(-1)
		releaseTenant()
		a.shedWait.Add(1)
		return nil, fmt.Errorf("%w: no capacity within %v", ErrOverloaded, a.queueWait)
	case <-ctx.Done():
		a.queued.Add(-1)
		releaseTenant()
		if cause := context.Cause(ctx); cause != nil {
			return nil, cause
		}
		return nil, ctx.Err()
	}
}

// enqueue reserves a queue position, never letting the depth exceed
// maxQueue (CAS loop: the bound holds under any interleaving). It also
// maintains the high-water mark the chaos suite asserts on.
func (a *admission) enqueue() bool {
	for {
		q := a.queued.Load()
		if q >= a.maxQueue {
			return false
		}
		if a.queued.CompareAndSwap(q, q+1) {
			for {
				m := a.maxQueued.Load()
				if q+1 <= m || a.maxQueued.CompareAndSwap(m, q+1) {
					break
				}
			}
			return true
		}
	}
}

// overloaded reports backpressure building: the queue is at least half
// full. This flips /healthz to "overloaded" before shedding starts in
// earnest, giving load balancers a signal ahead of the 429s.
func (a *admission) overloaded() bool {
	if a.slots == nil {
		return false
	}
	if a.maxQueue == 0 {
		return len(a.slots) == cap(a.slots)
	}
	return a.queued.Load() >= (a.maxQueue+1)/2
}

func (a *admission) snapshot() AdmissionStats {
	st := AdmissionStats{
		MaxQueued:     a.maxQueued.Load(),
		Queued:        a.queued.Load(),
		ShedQueueFull: a.shedFull.Load(),
		ShedQueueWait: a.shedWait.Load(),
		ShedTenant:    a.shedTenant.Load(),
	}
	st.Shed = st.ShedQueueFull + st.ShedQueueWait + st.ShedTenant
	if a.slots != nil {
		st.InFlight = len(a.slots)
		st.Capacity = cap(a.slots)
		st.QueueCapacity = int(a.maxQueue)
	}
	a.mu.Lock()
	st.Tenants = len(a.tenants)
	a.mu.Unlock()
	return st
}

// AdmissionStats is a point-in-time snapshot of the concurrency gate.
type AdmissionStats struct {
	InFlight      int   `json:"in_flight"`       // slots occupied now
	Capacity      int   `json:"capacity"`        // MaxInFlight (0: gate off)
	Queued        int64 `json:"queued"`          // waiting for a slot now
	QueueCapacity int   `json:"queue_capacity"`  // MaxQueue
	MaxQueued     int64 `json:"max_queued"`      // high-water queue depth
	Shed          int64 `json:"shed"`            // total requests rejected by admission
	ShedQueueFull int64 `json:"shed_queue_full"` // … because the queue was full
	ShedQueueWait int64 `json:"shed_queue_wait"` // … because QueueWait expired
	ShedTenant    int64 `json:"shed_tenant"`     // … because a tenant quota was hit
	Tenants       int   `json:"tenants"`         // distinct tenants in flight
}

// OutcomeStats counts finished requests by how they ended. Sample and
// Count both feed it; validation rejections count too (as Invalid).
// Each field is unigen_requests_total summed over its endpoints.
type OutcomeStats struct {
	OK          int64 `json:"ok"`
	Shed        int64 `json:"shed"`         // ErrOverloaded (429)
	Drained     int64 `json:"drained"`      // ErrDraining (503)
	Timeout     int64 `json:"timeout"`      // server/client deadlines, conflict budgets
	Panic       int64 `json:"panic"`        // recovered panics (500)
	UnknownBase int64 `json:"unknown_base"` // delta base not prepared here (404)
	Invalid     int64 `json:"invalid"`      // bad requests, unsatisfiable formulas (422)
	Canceled    int64 `json:"canceled"`     // client gone (context cancellation)
	Error       int64 `json:"error"`        // anything else (500)
}
