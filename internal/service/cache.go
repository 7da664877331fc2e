package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
)

// prepared is one cache entry's payload: an immutable core.Setup (safe
// to share across concurrent requests — only sessions carry mutable
// solver state), the stats of the preparation that built it, and
// per-formula request counters.
type prepared struct {
	setup       *core.Setup
	prepStats   core.Stats
	key         string // cache and store key (Service.cacheKey)
	fingerprint string // lowercase hex
	fromDisk    bool   // rehydrated from the persistent store (DESIGN §12)

	// Delta entries (DESIGN §13): a conditioned setup prepared from a
	// cached base under assumption literals. Non-diverged deltas keep a
	// reference to their base entry and serve sampling rounds through
	// the base's session pool with `assumps` installed as standing
	// assumptions; diverged deltas (base and nil assumps) are
	// first-class entries served like any cold-prepared formula.
	delta    bool
	diverged bool
	base     *prepared // nil unless a non-diverged delta
	assumps  []cnf.Lit // normalized assumption literals (non-diverged delta)
	baseFP   string    // base fingerprint, lowercase hex (delta entries)

	// pool lends per-worker sessions over this entry's setup to delta
	// requests that name it as their base. Built lazily on the first
	// delta request; nil until then.
	poolOnce sync.Once
	pool     *sessionPool

	requests atomic.Int64 // sample + count requests served from this entry
	samples  atomic.Int64 // witnesses returned
	counts   atomic.Int64 // count requests served
}

// cacheEntry is one slot of the prepared-formula cache. done is closed
// when the preparation flight finishes; prep/err are written before the
// close and immutable after, so waiters read them without the lock.
// ready mirrors "done is closed" under the cache mutex (a channel's
// closedness cannot be polled), gating eviction: only finished entries
// are evictable. waiters counts requests currently blocked on the
// flight; when the last one abandons an unfinished flight, intr is
// raised and the preparation solver aborts (see get).
type cacheEntry struct {
	key     string
	done    chan struct{}
	prep    *prepared
	err     error
	elem    *list.Element
	ready   bool
	waiters int
	intr    atomic.Bool
}

// prepCache is an LRU cache of prepared formulas with single-flight
// preparation: concurrent requests for the same key share one
// preparation — exactly one caller runs it, the rest wait on the flight.
type prepCache struct {
	mu        sync.Mutex
	capacity  int
	m         map[string]*cacheEntry
	lru       list.List // of *cacheEntry; front = most recently used
	hits      int64
	misses    int64
	evictions int64

	// onFlightDone, when set, observes every finished preparation
	// flight exactly once — single-flight means co-waiters share one
	// call — with the flight's wall-clock duration. It runs off the
	// cache lock; the service wires solver-work totals and the prepare
	// latency histogram through it.
	onFlightDone func(p *prepared, d time.Duration, err error)
}

func newPrepCache(capacity int) *prepCache {
	return &prepCache{capacity: capacity, m: map[string]*cacheEntry{}}
}

// get returns the prepared formula for key, preparing it on a miss.
// The second return reports a cache hit: true whenever an entry for key
// already existed, including one whose preparation is still in flight
// (the request waits but does not re-prepare). A failed preparation is
// not cached — its error goes to every waiter of that flight and the
// next request for the key retries.
//
// begin runs synchronously on the missing requester (snapshot
// caller-owned state there — the formula clone — so the hit path pays
// nothing and the flight never touches caller-mutable memory) and
// returns the preparation body, which runs in its own goroutine. The
// flight is not bound to any single request's context: every blocked
// requester returns ctx.Err() promptly on cancellation, and the flight
// keeps running while at least one requester still waits. When the
// LAST waiter abandons it, the flight's solver interrupt is raised so
// an unbudgeted preparation cannot pin a CPU forever on behalf of
// nobody; the aborted flight reports an error, is not cached, and the
// next request retries.
func (c *prepCache) get(ctx context.Context, key string, begin func(intr *atomic.Bool) func() (*prepared, error)) (*prepared, bool, error) {
	c.mu.Lock()
	e, hit := c.m[key]
	if hit {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		e.elem = c.lru.PushFront(e)
		c.m[key] = e
		c.misses++
	}
	e.waiters++
	c.mu.Unlock()

	if !hit {
		run := begin(&e.intr)
		go func() {
			flightStart := time.Now()
			prep, err := runFlight(run)
			if c.onFlightDone != nil {
				c.onFlightDone(prep, time.Since(flightStart), err)
			}
			c.mu.Lock()
			e.prep, e.err = prep, err
			e.ready = true
			if err != nil {
				c.removeLocked(e)
			} else {
				c.evictOverflowLocked()
			}
			c.mu.Unlock()
			close(e.done)
		}()
	}

	select {
	case <-e.done:
		c.mu.Lock()
		e.waiters--
		c.mu.Unlock()
		return e.prep, hit, e.err
	case <-ctx.Done():
		c.mu.Lock()
		e.waiters--
		if e.waiters == 0 && !e.ready {
			// Abandoned flight: abort its solver work and unlink it
			// right away, so a request arriving during the abort starts
			// a fresh preparation instead of inheriting the doomed
			// flight's interrupt-induced error.
			e.intr.Store(true)
			c.removeLocked(e)
		}
		c.mu.Unlock()
		return nil, hit, ctx.Err()
	}
}

// runFlight executes one preparation flight with panic isolation: a
// panic inside preparation (a solver bug, an injected fault) becomes an
// ErrPanic error. The error path of get then takes over — the flight is
// unlinked, never cached, and every co-waiting single-flight requester
// gets the error instead of hanging on a done channel that would never
// close (the panic would otherwise kill the process outright: flights
// run on their own goroutine).
func runFlight(run func() (*prepared, error)) (prep *prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			prep, err = nil, fmt.Errorf("%w: preparation panicked: %v", ErrPanic, r)
		}
	}()
	return run()
}

// removeLocked unlinks e from the map and the LRU list. The map check
// guards against double removal (an entry evicted while a failed flight
// is also removing itself).
func (c *prepCache) removeLocked(e *cacheEntry) {
	if c.m[e.key] == e {
		delete(c.m, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
}

// evictOverflowLocked drops least-recently-used finished entries until
// the cache fits its capacity. In-flight preparations are never evicted
// (their waiters hold the entry); if every entry is in flight the cache
// temporarily exceeds capacity rather than stall.
func (c *prepCache) evictOverflowLocked() {
	for c.lru.Len() > c.capacity {
		var victim *cacheEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.ready {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of the prepared-formula cache,
// the backing of the daemon's /stats endpoint.
type CacheStats struct {
	Hits      int64 // requests that found an entry (including in-flight ones)
	Misses    int64 // requests that started a preparation
	Evictions int64 // prepared formulas dropped by the LRU policy
	Size      int   // entries currently cached
	Capacity  int
	Formulas  []FormulaStats // most recently used first
}

// FormulaStats are the per-formula counters of one cache entry.
type FormulaStats struct {
	Fingerprint string `json:"fingerprint"`
	EasyCase    bool   `json:"easy_case"` // prepared by exact enumeration, no ApproxMC
	Requests    int64  `json:"requests"`
	Samples     int64  `json:"samples"`
	Counts      int64  `json:"counts"`
	// Delta marks entries prepared from a base formula under assumption
	// literals; Base names the base entry's fingerprint (empty for
	// diverged deltas promoted to first-class entries).
	Delta bool   `json:"delta,omitempty"`
	Base  string `json:"base,omitempty"`
	// SamplingVars is the size of the declared sampling set, HashVars
	// the size of the hash set hashing runs over (DESIGN §14), and Q the
	// hash width q of line 10 (0 in the easy case).
	SamplingVars int `json:"sampling_vars"`
	HashVars     int `json:"hash_vars"`
	Q            int `json:"q"`
}

// counts returns just the scalar counters — the cheap accessor the
// metrics collectors scrape without building the per-formula list.
func (c *prepCache) counts() (hits, misses, evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.lru.Len()
}

func (c *prepCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.lru.Len(),
		Capacity:  c.capacity,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if !e.ready || e.prep == nil {
			continue // preparation still in flight
		}
		fs := FormulaStats{
			Fingerprint: e.prep.fingerprint,
			EasyCase:    e.prep.prepStats.EasyCase(),
			Requests:    e.prep.requests.Load(),
			Samples:     e.prep.samples.Load(),
			Counts:      e.prep.counts.Load(),
			Delta:       e.prep.delta,

			SamplingVars: len(e.prep.setup.SamplingSet()),
			HashVars:     len(e.prep.setup.HashSet()),
			Q:            e.prep.setup.Q(),
		}
		if e.prep.base != nil {
			fs.Base = e.prep.baseFP
		}
		st.Formulas = append(st.Formulas, fs)
	}
	return st
}
