package service

import "encoding/hex"

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
