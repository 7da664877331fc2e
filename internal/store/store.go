// Package store implements the disk tier of the service's two-tier
// prepared-formula cache (DESIGN §12): a content-addressed directory of
// encoded core.Setup frames, keyed by the same fingerprint+parameters
// string as the RAM LRU, that survives daemon restarts.
//
// Design points, in the order a request meets them:
//
//   - Get reads the entry synchronously and runs the caller-supplied
//     Verify hook (the service passes core.VerifySetupFrame) before
//     returning bytes. A corrupt, truncated, or version-skewed entry is
//     never an error: it is quarantined (renamed to *.corrupt, so the
//     bytes survive for post-mortem but the path never matches again),
//     counted, and reported as a miss — the caller falls back to a cold
//     prepare. A hit refreshes the entry's modification time, which is
//     what the eviction scan orders by: writes set it too, so it is the
//     time of the last read or write (atime is ignored, since
//     relatime/noatime mounts don't maintain it on reads).
//
//   - Put enqueues to a background write-behind goroutine and returns
//     immediately: prepare latency never blocks on fsync. A full queue
//     (64 writes) drops the write (counted in WriteErrors) — the entry
//     is simply prepared cold again after the next restart. Writes are
//     atomic: the blob is written to a tmp- file, fsynced, then renamed
//     into place, so a crash mid-write can leave only tmp- litter
//     (removed by the next Open), never a torn entry.
//
//   - After each completed write the writer enforces MaxBytes by
//     scanning entries in ascending modification-time order and
//     deleting the least recently used until the total fits.
//
// The ordering contract of the write-behind queue: writes for the same
// key apply in Put order (one writer goroutine, FIFO channel), and
// Close drains the queue before returning, so a clean shutdown persists
// every accepted Put. Flush exposes the same barrier to tests.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	entrySuffix   = ".setup"
	corruptSuffix = ".corrupt"
	tmpPrefix     = "tmp-"
	queueLen      = 64 // write-behind queue bound
)

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if absent.
	Dir string
	// MaxBytes caps the total size of live entries; 0 means unlimited.
	// Enforced by the write-behind goroutine after each write.
	MaxBytes int64
	// Verify, when non-nil, validates every blob Get reads; a non-nil
	// error quarantines the entry and reports a miss.
	Verify func([]byte) error
	// Logger receives warnings (write failures, quarantines). Nil
	// discards them.
	Logger *slog.Logger
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits           int64 // Get found a valid entry
	Misses         int64 // Get found nothing usable (incl. quarantined reads)
	Writes         int64 // entries persisted by the write-behind goroutine
	WriteErrors    int64 // dropped writes: queue overflow or I/O failure
	Evictions      int64 // entries removed by the size-cap scan
	CorruptEntries int64 // entries quarantined (failed Verify or caller-reported)
	Bytes          int64 // total size of live entries
	Entries        int   // number of live entries
}

type job struct {
	name  string
	blob  []byte
	flush chan struct{} // non-nil: barrier — writer closes it when reached
}

// Store is a persistent prepared-formula store. All methods are safe
// for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	verify   func([]byte) error
	logger   *slog.Logger

	mu                                                    sync.Mutex       // guards index, bytes, and counters
	index                                                 map[string]int64 // live entry filename → size
	bytes                                                 int64
	hits, misses, writes, writeErrors, evictions, corrupt int64

	qmu    sync.RWMutex // Put/Flush hold R, Close holds W to close the queue
	closed bool
	queue  chan job
	done   chan struct{} // closed when the writer goroutine exits
}

// Open opens (creating if needed) the store at opts.Dir, removes any
// tmp- litter from a previous crash, warm-scans the surviving entries,
// and starts the write-behind goroutine.
func Open(opts Options) (*Store, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	st := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		verify:   opts.Verify,
		logger:   opts.Logger,
		index:    make(map[string]int64),
		queue:    make(chan job, queueLen),
		done:     make(chan struct{}),
	}
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			_ = os.Remove(filepath.Join(opts.Dir, name))
		case strings.HasSuffix(name, entrySuffix):
			if fi, err := e.Info(); err == nil {
				st.index[name] = fi.Size()
				st.bytes += fi.Size()
			}
		}
	}
	go st.writer()
	st.logger.Debug("store opened", "dir", st.dir, "entries", len(st.index), "bytes", st.bytes)
	return st, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// MaxBytes returns the configured size cap (0 = unlimited).
func (st *Store) MaxBytes() int64 { return st.maxBytes }

// entryName maps a cache key to its content-addressed filename.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + entrySuffix
}

// Get returns the stored blob for key, or reports a miss. A blob that
// fails the Verify hook is quarantined and reported as a miss; a hit
// refreshes the entry's modification time for the eviction scan.
func (st *Store) Get(key string) ([]byte, bool) {
	name := entryName(key)
	path := filepath.Join(st.dir, name)
	blob, err := os.ReadFile(path)
	if err != nil {
		st.mu.Lock()
		st.misses++
		st.mu.Unlock()
		return nil, false
	}
	if st.verify != nil {
		if verr := st.verify(blob); verr != nil {
			st.quarantine(name, verr)
			st.mu.Lock()
			st.misses++
			st.mu.Unlock()
			return nil, false
		}
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	st.mu.Lock()
	st.hits++
	st.mu.Unlock()
	return blob, true
}

// Put schedules the blob for persistence under key and returns without
// waiting for I/O. After Close, or when the queue is full, the write is
// dropped (counted in WriteErrors).
func (st *Store) Put(key string, blob []byte) {
	st.qmu.RLock()
	defer st.qmu.RUnlock()
	if st.closed {
		return
	}
	select {
	case st.queue <- job{name: entryName(key), blob: blob}:
	default:
		st.mu.Lock()
		st.writeErrors++
		st.mu.Unlock()
		st.logger.Warn("store write queue full, dropping entry", "dir", st.dir)
	}
}

// Quarantine reports an entry whose bytes passed the frame Verify but
// failed a deeper decode in the caller. The file is renamed aside and
// counted exactly like a Verify failure.
func (st *Store) Quarantine(key string, reason error) {
	st.quarantine(entryName(key), reason)
}

func (st *Store) quarantine(name string, reason error) {
	path := filepath.Join(st.dir, name)
	st.mu.Lock()
	if size, ok := st.index[name]; ok {
		delete(st.index, name)
		st.bytes -= size
	}
	st.corrupt++
	st.mu.Unlock()
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		_ = os.Remove(path)
	}
	st.logger.Warn("store entry quarantined", "entry", name, "reason", reason)
}

// Flush blocks until every Put accepted before the call has been
// written (or dropped). It is a no-op after Close, which implies the
// same barrier.
func (st *Store) Flush() {
	st.qmu.RLock()
	if st.closed {
		st.qmu.RUnlock()
		return
	}
	ack := make(chan struct{})
	st.queue <- job{flush: ack}
	st.qmu.RUnlock()
	<-ack
}

// Close drains the write-behind queue and stops the writer goroutine.
// Idempotent; Get keeps working after Close (reads take no queue), but
// further Puts are dropped silently.
func (st *Store) Close() {
	st.qmu.Lock()
	if !st.closed {
		st.closed = true
		close(st.queue)
	}
	st.qmu.Unlock()
	<-st.done
}

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Hits:           st.hits,
		Misses:         st.misses,
		Writes:         st.writes,
		WriteErrors:    st.writeErrors,
		Evictions:      st.evictions,
		CorruptEntries: st.corrupt,
		Bytes:          st.bytes,
		Entries:        len(st.index),
	}
}

// writer is the write-behind goroutine: FIFO over the queue, atomic
// tmp-write→fsync→rename per entry, size-cap eviction after each write.
func (st *Store) writer() {
	defer close(st.done)
	for j := range st.queue {
		if j.flush != nil {
			close(j.flush)
			continue
		}
		st.writeEntry(j.name, j.blob)
	}
}

func (st *Store) writeEntry(name string, blob []byte) {
	path := filepath.Join(st.dir, name)
	tmp, err := os.CreateTemp(st.dir, tmpPrefix+"*")
	if err == nil {
		_, err = tmp.Write(blob)
		if err == nil {
			err = tmp.Sync()
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
		if err != nil {
			_ = os.Remove(tmp.Name())
		}
	}
	if err != nil {
		st.mu.Lock()
		st.writeErrors++
		st.mu.Unlock()
		st.logger.Warn("store write failed", "entry", name, "err", err)
		return
	}
	st.mu.Lock()
	old := st.index[name]
	st.index[name] = int64(len(blob))
	st.bytes += int64(len(blob)) - old
	st.writes++
	st.evictLocked()
	st.mu.Unlock()
}

// evictLocked removes the entries read or written least recently until
// the live set fits MaxBytes. Called with st.mu held, from the writer
// goroutine only. Ties break lexicographically so the scan is
// deterministic.
func (st *Store) evictLocked() {
	if st.maxBytes <= 0 || st.bytes <= st.maxBytes {
		return
	}
	type cand struct {
		name string
		size int64
		at   time.Time
	}
	cands := make([]cand, 0, len(st.index))
	for name, size := range st.index {
		c := cand{name: name, size: size}
		if fi, err := os.Stat(filepath.Join(st.dir, name)); err == nil {
			c.at = fi.ModTime()
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].at.Equal(cands[j].at) {
			return cands[i].at.Before(cands[j].at)
		}
		return cands[i].name < cands[j].name
	})
	for _, c := range cands {
		if st.bytes <= st.maxBytes {
			break
		}
		_ = os.Remove(filepath.Join(st.dir, c.name))
		delete(st.index, c.name)
		st.bytes -= c.size
		st.evictions++
		st.logger.Debug("store entry evicted", "entry", c.name, "size", c.size)
	}
}
