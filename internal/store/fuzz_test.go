package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/randx"
)

// FuzzDecodeSetup pins the two codec robustness properties the disk
// tier depends on: arbitrary bytes never panic the decoder (a hostile
// or rotted store entry must degrade to a cold prepare, not crash the
// daemon), and every accepted input is a fixpoint of Encode∘Decode (so
// a re-persisted entry is byte-identical and CRC-stable).
func FuzzDecodeSetup(f *testing.F) {
	valid := func(build func() *cnf.Formula) []byte {
		g := build()
		su, err := core.NewSetup(g, randx.New(core.PrepSeed(g, nil)), core.Options{Epsilon: 6})
		if err != nil {
			f.Fatalf("NewSetup: %v", err)
		}
		blob, err := su.Encode()
		if err != nil {
			f.Fatalf("Encode: %v", err)
		}
		return blob
	}

	easy := valid(func() *cnf.Formula {
		g := cnf.New(3)
		g.AddClause(1, 2)
		g.AddClause(-2, 3)
		return g
	})
	hashing := valid(func() *cnf.Formula {
		g := cnf.New(12)
		g.AddClause(11, 12)
		g.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		return g
	})

	// All 12 variables declared, x11 = x1 ⊕ x2 and x12 = x3 ∧ x4: the
	// hash set (x2..x11) is smaller than the sampling set.
	pruned := valid(func() *cnf.Formula {
		g := cnf.New(12)
		g.AddClause(-11, 1, 2)
		g.AddClause(-11, -1, -2)
		g.AddClause(11, -1, 2)
		g.AddClause(11, 1, -2)
		g.AddClause(-12, 3)
		g.AddClause(-12, 4)
		g.AddClause(12, -3, -4)
		return g
	})

	// ≥7 seeds: three valid blobs, a truncated valid blob, a bit-flipped
	// valid blob, a bare magic with garbage, and empty input.
	f.Add(easy)
	f.Add(hashing)
	f.Add(pruned)
	f.Add(easy[:len(easy)/2])
	flipped := bytes.Clone(hashing)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Add([]byte("UGSU\x03\x00\xff\xff\xff\xffgarbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = core.VerifySetupFrame(data) // must not panic
		su, err := core.DecodeSetup(data, core.Options{})
		if err != nil {
			return
		}
		re, err := su.Encode()
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("Encode∘Decode not a fixpoint:\n in  %x\n out %x", data, re)
		}
	})
}

// TestStoreQuarantinesOlderVersions: an entry written by a release
// with an older setup codec — version 1 predates the persisted hash
// set, version 2 persisted 17 base-stats counters, version 3 held a
// CP'13 ApproxMC estimate, version 4 always held a finished estimate —
// fails frame
// verification, so the store reports a miss (the service then prepares
// cold) and removes the file instead of retrying it.
func TestStoreQuarantinesOlderVersions(t *testing.T) {
	g := cnf.New(12)
	g.AddClause(11, 12)
	su, err := core.NewSetup(g, randx.New(core.PrepSeed(g, nil)), core.Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := su.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{1, 2, 3, 4} {
		old := bytes.Clone(blob)
		binary.LittleEndian.PutUint16(old[4:], v)
		body := len(old) - 4
		binary.LittleEndian.PutUint32(old[body:], crc32.Checksum(old[:body], crc32.MakeTable(crc32.Castagnoli)))
		if err := core.VerifySetupFrame(old); !errors.Is(err, core.ErrCodec) {
			t.Fatalf("version-%d frame: %v, want ErrCodec", v, err)
		}

		dir := t.TempDir()
		st, err := Open(Options{Dir: dir, Verify: core.VerifySetupFrame})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		st.Put("k1", old)
		st.Flush()
		if _, ok := st.Get("k1"); ok {
			t.Fatalf("version-%d entry served as a hit", v)
		}
		if s := st.Stats(); s.CorruptEntries != 1 || s.Misses != 1 || s.Entries != 0 {
			t.Fatalf("version %d: stats %+v", v, s)
		}
		if _, err := os.Stat(filepath.Join(dir, entryName("k1"))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("version %d: quarantined entry still on disk: %v", v, err)
		}
		checkDirMatchesStats(t, dir, st)
	}
}
