package service

import (
	"context"
	"encoding/hex"
	"sync/atomic"

	"unigen/internal/cnf"
)

// MemoFingerprint reports the fingerprint s's memo maps formula text to.
func MemoFingerprint(s *Service, text string) (string, bool) {
	fp, ok := s.memo.get(textKey(text))
	return hex.EncodeToString(fp[:]), ok
}

// MemoLen reports how many keys s's memo holds, and its bound.
func MemoLen(s *Service) (n, bound int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.lru.Len(), s.memo.capacity
}

// HoldLookupFlight starts a lookup-only flight for f's cache key, the
// flight a delta request naming f's fingerprint starts while f is
// neither cached nor on disk. It returns once the flight holds the
// key. The flight fails with ErrUnknownBase after release is called,
// and done then yields the error its own requester got.
func HoldLookupFlight(s *Service, f *cnf.Formula) (release func(), done <-chan error) {
	fp := cnf.Fingerprint(f)
	gate := make(chan struct{})
	held := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.cache.get(context.Background(), s.cacheKey(fp), func(*atomic.Bool) func() (*prepared, error) {
			close(held)
			return func() (*prepared, error) {
				<-gate
				return nil, ErrUnknownBase
			}
		})
		errc <- err
	}()
	<-held
	return func() { close(gate) }, errc
}
