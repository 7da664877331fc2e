package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/randx"
	"unigen/internal/tally"
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
	// The solver work stays with the process that spent it: the
	// decoded stats are the easy-case flag and q alone.
	if want := (Stats{tally.Q: int64(su.q)}); got.SetupStats() != want {
		t.Fatalf("decoded setup stats %+v, want %+v", got.SetupStats(), want)
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

// textOffset is the frame offset of the formula text's length.
const textOffset = setupHdrLen + 32 + 8

// hashSetOffset returns the frame offset of the hash-set count: after
// the fingerprint, epsilon, formula text and sampling set.
func hashSetOffset(blob []byte, su *Setup) int {
	n := int(binary.LittleEndian.Uint32(blob[textOffset:]))
	return textOffset + 4 + n + 4 + 4*len(su.s)
}

// TestSetupCodecRoundTripHashSet: a version-6 frame carries the hash set,
// so a rehydrated setup hashes over exactly what the cold one did.
func TestSetupCodecRoundTripHashSet(t *testing.T) {
	su := buildSetup(t, prunedFormula())
	if len(su.h) >= len(su.s) {
		t.Fatalf("fixture should prune: hash set %v, sampling set %v", su.h, su.s)
	}
	blob := encode(t, su)
	if v := binary.LittleEndian.Uint16(blob[4:]); v != 6 {
		t.Fatalf("frame version %d, want 6", v)
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
	off := hashSetOffset(blob, su)
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

// TestSetupCodecRejectsOlderVersions: frames from before the hash set
// was persisted (version 1), from before the base-stats block shrank
// to 11 counters (version 2), from before ApproxMC2 (version 3), from
// before setup stopped ApproxMC once q was settled (version 4) or from
// before the formula was stored as its fingerprint's text (version 5)
// are a version-skew ErrCodec, never decoded as the current version.
func TestSetupCodecRejectsOlderVersions(t *testing.T) {
	blob := encode(t, buildSetup(t, hashingFormula()))
	for _, v := range []uint16{1, 2, 3, 4, 5} {
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

// withFormulaText returns blob with its formula text replaced by text,
// and the fingerprint, payload length and checksum recomputed to match.
func withFormulaText(blob, text []byte) []byte {
	n := int(binary.LittleEndian.Uint32(blob[textOffset:]))
	fp := sha256.Sum256(text)
	out := append([]byte(nil), blob[:setupHdrLen]...)
	out = append(out, fp[:]...)
	out = append(out, blob[setupHdrLen+32:textOffset]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(text)))
	out = append(out, text...)
	out = append(out, blob[textOffset+4+n:len(blob)-4]...)
	binary.LittleEndian.PutUint32(out[6:], uint32(len(out)-setupHdrLen))
	out = append(out, 0, 0, 0, 0)
	patchCRC(out, len(out)-4)
	return out
}

// TestSetupCodecFormulaText: the frame's formula is the text its
// fingerprint hashes, and decode accepts only the text Encode writes:
// a tag byte matching the sampling set, then WriteDIMACS's rendering
// of a formula in canonical order. Every other text is an ErrCodec
// even under a matching fingerprint and a valid CRC. Formulas with
// XORs, with no variable, with an empty clause, and with a nil and an
// empty sampling set round-trip to their canonical form, the last two
// apart.
func TestSetupCodecFormulaText(t *testing.T) {
	f := hashingFormula()
	f.AddClause(-11, -12)
	f.AddXOR([]cnf.Var{2, 1}, false)
	blob := encode(t, buildSetup(t, f))
	n := int(binary.LittleEndian.Uint32(blob[textOffset:]))
	text := string(blob[textOffset+4 : textOffset+4+n])
	const want = "\x01c ind 1 2 3 4 5 6 7 8 9 10 0\np cnf 12 2\n11 12 0\n-11 -12 0\nx-1 2 0\n"
	if text != want {
		t.Fatalf("formula text %q, want %q", text, want)
	}
	if fp := cnf.Fingerprint(f); fp != sha256.Sum256([]byte(text)) {
		t.Fatal("the formula text does not hash to the formula's fingerprint")
	}
	if !bytes.Equal(withFormulaText(blob, []byte(text)), blob) {
		t.Fatal("splicing the formula text back does not rebuild the frame")
	}
	for name, bad := range map[string]string{
		"clauses out of order": strings.Replace(want, "11 12 0\n-11 -12 0\n", "-11 -12 0\n11 12 0\n", 1),
		"duplicate clause":     strings.Replace(want, "p cnf 12 2\n11 12 0\n", "p cnf 12 3\n11 12 0\n11 12 0\n", 1),
		"unsorted literals":    strings.Replace(want, "\n11 12 0", "\n12 11 0", 1),
		"unsorted sampling":    strings.Replace(want, "c ind 1 2 ", "c ind 2 1 ", 1),
		"xor sign moved":       strings.Replace(want, "x-1 2 0", "x1 -2 0", 1),
		"extra space":          strings.Replace(want, "11 12 0", "11  12 0", 1),
		"trailing space":       strings.Replace(want, "11 12 0\n", "11 12 0 \n", 1),
		"comment":              strings.Replace(want, "p cnf", "c note\np cnf", 1),
		"blank line":           want + "\n",
		"crlf":                 strings.ReplaceAll(want, "\n", "\r\n"),
		"count above MaxVars":  strings.Replace(want, "p cnf 12 2", "p cnf 4194305 2", 1),
		"nil tag with a set":   "\x00" + want[1:],
		"unknown tag":          "\x02" + want[1:],
		"no tag":               "",
	} {
		if _, err := DecodeSetup(withFormulaText(blob, []byte(bad)), Options{}); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: %v, want ErrCodec", name, err)
		}
	}

	// Formulas of every shape round-trip through the frame to their
	// canonical form, which fingerprints as they do. A nil sampling set
	// and a declared empty one write the same DIMACS text; the tag byte
	// keeps them apart.
	fps := map[string][32]byte{}
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"full", func() *cnf.Formula {
			g := cnf.New(6)
			g.AddClause(3, -2, 1)
			g.AddClause(-4, 5)
			g.AddClause(6)
			g.AddXOR([]cnf.Var{5, 1, 3}, true)
			g.AddXOR([]cnf.Var{2, 4}, false)
			g.SamplingSet = []cnf.Var{3, 1, 2, 1}
			return g
		}()},
		{"empty", cnf.New(0)},
		{"no-sampling", easyFormula()},
		{"empty-set", func() *cnf.Formula { g := easyFormula(); g.SamplingSet = []cnf.Var{}; return g }()},
		{"empty-clause", func() *cnf.Formula { g := cnf.New(1); g.Clauses = append(g.Clauses, cnf.Clause{}); return g }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := encode(t, buildSetup(t, tc.f))
			got, err := DecodeSetup(blob, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fp := cnf.Fingerprint(tc.f)
			if cnf.Fingerprint(got.f) != fp || !cnf.IsCanonical(got.f) ||
				(got.f.SamplingSet == nil) != (tc.f.SamplingSet == nil) {
				t.Fatalf("decoded %q, want the canonical form of %q",
					cnf.DIMACSString(got.f), cnf.DIMACSString(tc.f))
			}
			if !bytes.Equal(encode(t, got), blob) {
				t.Fatal("re-encoded frame differs")
			}
			fps[tc.name] = fp
		})
	}
	if fps["no-sampling"] == fps["empty-set"] {
		t.Fatal("a nil and an empty sampling set fingerprint alike")
	}
}
