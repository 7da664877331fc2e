package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"unigen/internal/cnf"
)

// The fingerprint memo (DESIGN §8, §13) lets a cache hit skip the work
// that derives its cache key. It maps what a request names to the
// fingerprint of the formula it names, under two kinds of key: the
// SHA-256 of a request's raw DIMACS text, which saves the parse and
// the fingerprint, and a delta's base fingerprint with its normalized
// assumptions, which saves Conjoin and the fingerprint. An entry is
// written only after the parse or Conjoin it stands for succeeded, and
// both are deterministic, so a hit names the same fingerprint a miss
// would compute. A hit whose cache entry is gone redoes that work in
// the preparation flight. Another spelling of a formula is another
// text: it misses the memo and still hits the cache by fingerprint.

// memoPerEntry sizes the memo from Config.CacheSize: room for a few
// keys (spellings, delta assumption sets) per cached formula.
const memoPerEntry = 4

// memoKey is one memo key: the SHA-256 of a formula text, or (delta
// set) of a base fingerprint and its normalized assumptions. The flag
// keeps the two apart: a posted text could spell a delta key's
// preimage byte for byte.
type memoKey struct {
	delta bool
	sum   [32]byte
}

// textKey keys DIMACS text. The text streams through a small buffer,
// so hashing a multi-megabyte body does not copy it.
func textKey(text string) memoKey {
	h := sha256.New()
	var buf [4096]byte
	for len(text) > 0 {
		n := copy(buf[:], text)
		h.Write(buf[:n])
		text = text[n:]
	}
	var k memoKey
	h.Sum(k.sum[:0])
	return k
}

// deltaKey keys a delta request by its base fingerprint and normalized
// assumption literals.
func deltaKey(base [32]byte, assumps []cnf.Lit) memoKey {
	h := sha256.New()
	h.Write(base[:])
	var b [8]byte
	for _, l := range assumps {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	k := memoKey{delta: true}
	h.Sum(k.sum[:0])
	return k
}

type memoEntry struct {
	key memoKey
	fp  [32]byte
}

// memo is a bounded LRU map from memoKey to fingerprint, safe for
// concurrent use.
type memo struct {
	mu       sync.Mutex
	capacity int
	m        map[memoKey]*list.Element
	lru      list.List // of *memoEntry; front = most recently used
}

func newMemo(capacity int) *memo {
	return &memo{capacity: capacity, m: map[memoKey]*list.Element{}}
}

// get returns the fingerprint k maps to.
func (m *memo) get(k memoKey) ([32]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.m[k]
	if !ok {
		return [32]byte{}, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).fp, true
}

// put maps k to fp, dropping the least recently used key past the
// bound.
func (m *memo) put(k memoKey, fp [32]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.m[k]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.m[k] = m.lru.PushFront(&memoEntry{key: k, fp: fp})
	if m.lru.Len() > m.capacity {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.m, old.key)
	}
}
