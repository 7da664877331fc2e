package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// hashingFormula has 2^10 witnesses projected on its sampling set —
// far above hiThresh for ε=6 — so NewSetup takes the ApproxMC path.
func hashingFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

// easyFormula has 3 witnesses, well below hiThresh: the easy-case path.
func easyFormula() *cnf.Formula {
	f := cnf.New(2)
	f.AddClause(1, 2)
	return f
}

func buildSetup(t *testing.T, f *cnf.Formula) *Setup {
	t.Helper()
	su, err := NewSetup(f, randx.New(PrepSeed(f, nil)), Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	return su
}

func encode(t *testing.T, su *Setup) []byte {
	t.Helper()
	blob, err := su.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return blob
}

// sampleStream draws n rounds from a setup on a fresh session, the way
// the parallel engine schedules round i on stream i.
func sampleStream(t *testing.T, su *Setup, seed uint64, n int) []string {
	t.Helper()
	sess := su.NewSession()
	var st Stats
	out := make([]string, 0, n)
	vars := su.SamplingSet()
	for i := 0; len(out) < n; i++ {
		if i > 100*n {
			t.Fatalf("no %d samples in %d rounds", n, i)
		}
		w, err := su.SampleRound(sess, randx.Stream(seed, uint64(i)), &st, nil)
		if errors.Is(err, ErrFailed) {
			out = append(out, "⊥")
			continue
		}
		if err != nil {
			t.Fatalf("SampleRound: %v", err)
		}
		out = append(out, w.Project(vars))
	}
	return out
}

func TestSetupCodecRoundTripHashing(t *testing.T) {
	su := buildSetup(t, hashingFormula())
	blob := encode(t, su)
	if err := VerifySetupFrame(blob); err != nil {
		t.Fatalf("VerifySetupFrame on valid blob: %v", err)
	}

	got, err := DecodeSetup(blob, Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	if got.easySet != su.easySet || got.q != su.q {
		t.Fatalf("decoded easySet=%v q=%d, want %v %d", got.easySet, got.q, su.easySet, su.q)
	}
	// Every persisted counter survives; the rest (Decisions) decode as 0.
	var persisted Stats
	for _, c := range statsBlock {
		persisted[c.id] = su.base[c.id]
	}
	if got.base != persisted {
		t.Fatalf("base stats %+v → %+v, want %+v", su.base, got.base, persisted)
	}
	if got.kp != su.kp {
		t.Fatalf("kappa/pivot %+v → %+v", su.kp, got.kp)
	}

	// Encode → Decode → Encode is a fixpoint.
	blob2 := encode(t, got)
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded blob differs from original")
	}

	// Both finish to the same count: the decoded run state resumes
	// where the original stopped.
	wc, _, _, werr := su.WitnessCount(nil, nil)
	gc, _, _, gerr := got.WitnessCount(nil, nil)
	if werr != nil || gerr != nil || wc.Cmp(gc) != 0 {
		t.Fatalf("count %v (%v) → %v (%v)", wc, werr, gc, gerr)
	}

	// The rehydrated setup serves the same witness stream: sessions are
	// built lazily and rounds are solver-history-independent.
	want := sampleStream(t, su, 2014, 6)
	have := sampleStream(t, got, 2014, 6)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round %d: decoded setup sampled %q, want %q", i, have[i], want[i])
		}
	}
}

func TestSetupCodecRoundTripEasy(t *testing.T) {
	su := buildSetup(t, easyFormula())
	if !su.easySet {
		t.Fatal("fixture should take the easy-case path")
	}
	blob := encode(t, su)
	got, err := DecodeSetup(blob, Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	if !got.easySet || len(got.easy) != len(su.easy) {
		t.Fatalf("decoded easy list %d entries, want %d", len(got.easy), len(su.easy))
	}
	// The full witness list survives in canonical order, so index picks
	// match without any re-enumeration (zero BSAT calls on rehydrate).
	for i := range su.easy {
		if !bytes.Equal(boolsToBytes(su.easy[i]), boolsToBytes(got.easy[i])) {
			t.Fatalf("easy witness %d differs", i)
		}
	}
	if c, exact, _, err := got.WitnessCount(nil, nil); err != nil || !exact || c.Int64() != int64(len(su.easy)) {
		t.Fatalf("WitnessCount = %v exact=%v (%v), want %d exact", c, exact, err, len(su.easy))
	}
	want := sampleStream(t, su, 7, 5)
	have := sampleStream(t, got, 7, 5)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round %d: decoded setup sampled %q, want %q", i, have[i], want[i])
		}
	}
	if blob2 := encode(t, got); !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoded blob differs from original")
	}
}

func TestSetupCodecUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1)
	f.AddClause(-1)
	su := buildSetup(t, f)
	got, err := DecodeSetup(encode(t, su), Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	var st Stats
	if _, err := got.SampleRound(got.NewSession(), randx.New(1), &st, nil); !errors.Is(err, ErrUnsat) {
		t.Fatalf("sampling decoded UNSAT setup: %v, want ErrUnsat", err)
	}
}

func TestSetupCodecRejectsCorruption(t *testing.T) {
	blob := encode(t, buildSetup(t, hashingFormula()))

	// Every single-byte flip must be rejected (CRC or structure), and
	// must never panic.
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x40
		if _, err := DecodeSetup(mut, Options{}); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}

	// Every truncation must be rejected.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeSetup(blob[:n], Options{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if err := VerifySetupFrame(blob[:n]); err == nil {
			t.Fatalf("VerifySetupFrame accepted truncation to %d bytes", n)
		}
	}

	// Trailing garbage breaks the exact-length contract.
	if _, err := DecodeSetup(append(bytes.Clone(blob), 0), Options{}); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// A frame from a future codec version is a version-skew miss even
	// with a recomputed checksum.
	skew := bytes.Clone(blob)
	skew[4] = 0xFF
	body := len(skew) - 4
	patchCRC(skew, body)
	if err := VerifySetupFrame(skew); !errors.Is(err, ErrCodec) {
		t.Fatalf("version skew: %v, want ErrCodec", err)
	}

	// Epsilon mismatch: a blob prepared for ε=6 cannot answer ε=7.
	if _, err := DecodeSetup(blob, Options{Epsilon: 7}); !errors.Is(err, ErrCodec) {
		t.Fatalf("epsilon mismatch: %v, want ErrCodec", err)
	}
}

func TestEncodedFingerprint(t *testing.T) {
	f := hashingFormula()
	blob := encode(t, buildSetup(t, f))
	fp, err := EncodedFingerprint(blob)
	if err != nil {
		t.Fatalf("EncodedFingerprint: %v", err)
	}
	if want := cnf.Fingerprint(f); fp != want {
		t.Fatalf("fingerprint %x, want %x", fp, want)
	}
	if _, err := EncodedFingerprint(blob[:8]); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func boolsToBytes(a cnf.Assignment) []byte {
	out := make([]byte, len(a))
	for i, b := range a {
		if b {
			out[i] = 1
		}
	}
	return out
}

// patchCRC recomputes the trailer checksum over data[:body].
func patchCRC(data []byte, body int) {
	crc := crc32.Checksum(data[:body], crcTable)
	binary.LittleEndian.PutUint32(data[body:], crc)
}

// hashSetOffset returns the frame offset of the hash-set count: after
// the fingerprint, epsilon, formula and sampling set.
func hashSetOffset(t *testing.T, su *Setup) int {
	t.Helper()
	fb, err := cnf.AppendBinary(nil, su.f)
	if err != nil {
		t.Fatal(err)
	}
	return setupHdrLen + 32 + 8 + len(fb) + 4 + 4*len(su.s)
}

// TestSetupCodecRoundTripHashSet: a version-5 frame carries the hash set,
// so a rehydrated setup hashes over exactly what the cold one did.
func TestSetupCodecRoundTripHashSet(t *testing.T) {
	su := buildSetup(t, prunedFormula())
	if len(su.h) >= len(su.s) {
		t.Fatalf("fixture should prune: hash set %v, sampling set %v", su.h, su.s)
	}
	blob := encode(t, su)
	if v := binary.LittleEndian.Uint16(blob[4:]); v != 5 {
		t.Fatalf("frame version %d, want 5", v)
	}
	got, err := DecodeSetup(blob, Options{Epsilon: 6})
	if err != nil {
		t.Fatalf("DecodeSetup: %v", err)
	}
	if !slices.Equal(got.h, su.h) || !slices.Equal(got.s, su.s) {
		t.Fatalf("decoded hash set %v / sampling set %v, want %v / %v", got.h, got.s, su.h, su.s)
	}
	if !bytes.Equal(encode(t, got), blob) {
		t.Fatal("re-encoded blob differs from original")
	}
	if want, have := sampleStream(t, su, 2014, 6), sampleStream(t, got, 2014, 6); !slices.Equal(want, have) {
		t.Fatalf("decoded setup sampled %q, want %q", have, want)
	}
}

// TestSetupCodecRejectsBadHashSet: decode accepts only a hash set that
// is an ordered subset of the sampling set, even under a valid CRC.
func TestSetupCodecRejectsBadHashSet(t *testing.T) {
	su := buildSetup(t, hashingFormula()) // s = h = 1..10, NumVars 12
	blob := encode(t, su)
	off := hashSetOffset(t, su)
	if n := binary.LittleEndian.Uint32(blob[off:]); int(n) != len(su.h) {
		t.Fatalf("hash-set count %d at offset %d, want %d", n, off, len(su.h))
	}
	for name, patch := range map[string]func(b []byte){
		"reordered": func(b []byte) { // h[0], h[1] = h[1], h[0]
			binary.LittleEndian.PutUint32(b[off+4:], uint32(su.h[1]))
			binary.LittleEndian.PutUint32(b[off+8:], uint32(su.h[0]))
		},
		"outside sampling set": func(b []byte) { // h[0] = 11
			binary.LittleEndian.PutUint32(b[off+4:], 11)
		},
	} {
		mut := bytes.Clone(blob)
		patch(mut)
		patchCRC(mut, len(mut)-4)
		if _, err := DecodeSetup(mut, Options{}); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s hash set: %v, want ErrCodec", name, err)
		}
	}
}

// TestSetupCodecRejectsStatsMismatch: the base-stats block repeats the
// setup's easy-case flag and q, which NewSetup and SetupWith write from
// one value; decode rejects a frame whose two copies disagree, even
// under a valid CRC.
func TestSetupCodecRejectsStatsMismatch(t *testing.T) {
	su := buildSetup(t, hashingFormula())
	blob := encode(t, su)
	qOff := len(blob) - 4 - 4 // stats Q: the payload's last u32
	easyOff := qOff - 1       // stats EasyCase flag, just before it
	if got := binary.LittleEndian.Uint32(blob[qOff:]); int(got) != su.q || blob[easyOff] != 0 {
		t.Fatalf("stats tail q=%d easy=%d, want q=%d easy=0", got, blob[easyOff], su.q)
	}
	for name, patch := range map[string]func(b []byte){
		"q":         func(b []byte) { binary.LittleEndian.PutUint32(b[qOff:], uint32(su.q-1)) },
		"easy case": func(b []byte) { b[easyOff] = 1 },
	} {
		mut := bytes.Clone(blob)
		patch(mut)
		patchCRC(mut, len(mut)-4)
		if _, err := DecodeSetup(mut, Options{}); !errors.Is(err, ErrCodec) {
			t.Fatalf("stats %s disagreeing with the setup: %v, want ErrCodec", name, err)
		}
	}
}

// TestSetupCodecRejectsOlderVersions: frames from before the hash set
// was persisted (version 1), from before the base-stats block shrank
// to 11 counters (version 2), from before ApproxMC2 (version 3) or
// from before setup stopped ApproxMC once q was settled (version 4)
// are a version-skew ErrCodec, never decoded as the current version.
func TestSetupCodecRejectsOlderVersions(t *testing.T) {
	blob := encode(t, buildSetup(t, hashingFormula()))
	for _, v := range []uint16{1, 2, 3, 4} {
		old := bytes.Clone(blob)
		binary.LittleEndian.PutUint16(old[4:], v)
		patchCRC(old, len(old)-4)
		if err := VerifySetupFrame(old); !errors.Is(err, ErrCodec) {
			t.Fatalf("VerifySetupFrame(v%d): %v, want ErrCodec", v, err)
		}
		if _, err := DecodeSetup(old, Options{}); !errors.Is(err, ErrCodec) {
			t.Fatalf("DecodeSetup(v%d): %v, want ErrCodec", v, err)
		}
	}
}
