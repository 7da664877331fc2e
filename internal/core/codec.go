package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/big"

	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/tally"
)

// Setup codec: the versioned, checksummed binary encoding behind the
// persistent prepared-formula store (DESIGN §12). Encode serializes
// the formula and everything lines 1–11 of Algorithm 1 derive from it —
// sampling set, hash set, κ/pivot, the easy-case witness list, the
// ApproxMC estimate C or the state of the run that will finish it, the
// candidate endpoint q, and the setup-phase stats — so a later process
// can rehydrate the Setup and serve bit-identical samples and counts
// without re-running the setup. The spare session is the one field that
// cannot be persisted: a decoded Setup carries spare=nil, so NewSession
// and NewSessionWith build solvers lazily on first use.
//
// Frame layout (all integers little-endian):
//
//	[0:4]   magic "UGSU"
//	[4:6]   u16 version (currently 5; version 1 had no hash set,
//	        version 2 persisted 17 base-stats counters, version 3
//	        held an estimate from CP'13's ApproxMC, which draws a
//	        different estimate from the same RNG, and version 4 always
//	        held a finished estimate)
//	[6:10]  u32 payload length
//	[10:N]  payload (see below)
//	[N:N+4] u32 CRC-32C (Castagnoli) over bytes [0:N]
//
// The frame must be exact: trailing bytes after the CRC are rejected,
// which is what makes Encode∘Decode a fixpoint on every accepted input
// (the property FuzzDecodeSetup pins).
//
// Payload layout:
//
//	[32]byte fingerprint of the encoded formula (cnf.Fingerprint)
//	f64      epsilon (IEEE-754 bits; preserved exactly, NaN included)
//	formula  (cnf.AppendBinary)
//	u32 count + u32 per variable   sampling set s
//	u32 count + u32 per variable   hash set h (an ordered subset of s)
//	f64 kappa, u32 pivot, u32 hiThresh, f64 loThresh
//	u8 easySet (0|1)
//	u32 easyCount + easyCount × ⌈NumVars/8⌉ bytes   bit-packed witnesses
//	    (bit v−1 of a row is variable v; row order is the canonical
//	    sortWitnesses order, which SampleRound's index pick depends on)
//	u32 q
//	u8 countTag, then by tag:
//	    0 (easy case): nothing
//	    1 (finished estimate C): estimate
//	    2 (settled run, DESIGN §15): u64 RNG state, u32 search start,
//	      u32 rounds left, u32 m, m × estimate in ascending order
//	  where an estimate is u32 len + big-endian magnitude (big.Int.Bytes)
//	base stats: the statsBlock counters in order — 11 × u64
//	    (two's-complement int64), u32 SetupRounds, u8 EasyCase, u32 Q
//
// Decode validates structure, never panics on arbitrary input, and
// bounds every allocation by the bytes actually present. Semantic
// checks reject blobs no Encode could have produced: the embedded
// fingerprint must match the decoded formula, κ/pivot must equal
// ComputeKappaPivot(epsilon) exactly (both sides run the same
// deterministic bisection), the hash set must be an ordered subset of
// the sampling set, the count tag must be 0 exactly in the easy case,
// q must be line 10's q for the estimate — for a settled run, for both
// extremes of the median its rounds left can produce — and the stats'
// EasyCase and Q must equal the setup's. A settled run must have a
// round left, an estimate, a search start within the hash rows and
// ascending estimates. Decode never recomputes the hash set: the
// persisted one is what the setup sampled with.

const (
	setupMagic   = "UGSU"
	setupVersion = 5
	setupHdrLen  = 4 + 2 + 4 // magic + version + payload length
)

// ErrCodec tags every setup-encoding failure: truncation, checksum or
// version mismatch, and structurally impossible field values. The store
// tier treats any ErrCodec as a miss and quarantines the entry.
var ErrCodec = errors.New("core: invalid setup encoding")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// MaxEncodedWitnesses bounds the easy-case witness count accepted at
// decode. Real easy lists hold at most HiThresh entries (≲ a few
// hundred for any admissible ε), so the bound is generous while keeping
// hostile counts from sizing huge allocations.
const MaxEncodedWitnesses = 1 << 20

// Encode serializes the setup into a self-contained checksummed frame
// suitable for the persistent store. The encoding captures everything
// the setup derived; it does not capture Options.Solver or other
// runtime knobs, which the decoding process supplies (they configure
// sessions, not the prepared state).
func (su *Setup) Encode() ([]byte, error) {
	le := binary.LittleEndian
	payload := make([]byte, 0, 256)

	fp := cnf.Fingerprint(su.f)
	payload = append(payload, fp[:]...)
	payload = le.AppendUint64(payload, math.Float64bits(su.opts.Epsilon))

	var err error
	payload, err = cnf.AppendBinary(payload, su.f)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}

	payload = le.AppendUint32(payload, uint32(len(su.s)))
	for _, v := range su.s {
		if v < 1 || int(v) > su.f.NumVars {
			return nil, fmt.Errorf("%w: sampling variable %d outside 1..%d", ErrCodec, v, su.f.NumVars)
		}
		payload = le.AppendUint32(payload, uint32(v))
	}
	if !orderedSubset(su.h, su.s) {
		return nil, fmt.Errorf("%w: hash set is not an ordered subset of the sampling set", ErrCodec)
	}
	payload = le.AppendUint32(payload, uint32(len(su.h)))
	for _, v := range su.h {
		payload = le.AppendUint32(payload, uint32(v))
	}

	payload = le.AppendUint64(payload, math.Float64bits(su.kp.Kappa))
	payload = le.AppendUint32(payload, uint32(su.kp.Pivot))
	payload = le.AppendUint32(payload, uint32(su.kp.HiThresh))
	payload = le.AppendUint64(payload, math.Float64bits(su.kp.LoThresh))

	payload = appendBool(payload, su.easySet)
	payload = le.AppendUint32(payload, uint32(len(su.easy)))
	width := (su.f.NumVars + 7) / 8
	row := make([]byte, width)
	for _, w := range su.easy {
		clear(row)
		for v := 1; v <= su.f.NumVars; v++ {
			if v < len(w) && w[v] {
				row[(v-1)/8] |= 1 << uint((v-1)%8)
			}
		}
		payload = append(payload, row...)
	}

	payload = le.AppendUint32(payload, uint32(su.q))
	su.countMu.Lock()
	est, amc := su.est, su.amc
	su.countMu.Unlock()
	switch {
	case su.easySet:
		payload = append(payload, countNone)
	case est != nil:
		payload = append(payload, countFinished)
		if payload, err = appendEstimate(payload, est); err != nil {
			return nil, err
		}
	default:
		payload = append(payload, countSettled)
		payload = le.AppendUint64(payload, amc.RNG)
		payload = le.AppendUint32(payload, uint32(amc.Start))
		payload = le.AppendUint32(payload, uint32(amc.Left))
		payload = le.AppendUint32(payload, uint32(len(amc.Estimates)))
		for _, e := range amc.Estimates {
			if payload, err = appendEstimate(payload, e); err != nil {
				return nil, err
			}
		}
	}

	for _, c := range statsBlock {
		// Little-endian: a field's width bytes are the value's low bytes.
		n := len(payload) + c.width
		payload = le.AppendUint64(payload, uint64(su.base[c.id]))[:n]
	}

	out := make([]byte, 0, setupHdrLen+len(payload)+4)
	out = append(out, setupMagic...)
	out = le.AppendUint16(out, setupVersion)
	out = le.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = le.AppendUint32(out, crc32.Checksum(out, crcTable))
	return out, nil
}

// Count tags: what the frame holds of line 9's estimate.
const (
	countNone     = 0 // easy case: the witness list is the count
	countFinished = 1 // the estimate C of every ApproxMC round
	countSettled  = 2 // the state of a run stopped once q was settled
)

// appendEstimate appends a positive estimate as u32 len + big-endian
// magnitude.
func appendEstimate(dst []byte, e *big.Int) ([]byte, error) {
	if e.Sign() <= 0 {
		return nil, fmt.Errorf("%w: non-positive estimate", ErrCodec)
	}
	eb := e.Bytes()
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(eb)))
	return append(dst, eb...), nil
}

// orderedSubset reports whether h is a subsequence of s.
func orderedSubset(h, s []cnf.Var) bool {
	i := 0
	for _, v := range s {
		if i < len(h) && h[i] == v {
			i++
		}
	}
	return i == len(h)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// statsBlock is the frame's base-stats block: the persisted counters in
// codec order, each with its little-endian width in bytes (8: int64,
// 4: u32, 1: a 0|1 flag). Encode and decode both walk it, so the two
// cannot skew; changing it means bumping setupVersion. Counters outside
// it (Decisions) are not persisted and decode as zero.
var statsBlock = [...]struct {
	id    tally.ID
	width int
}{
	{tally.Samples, 8}, {tally.Failures, 8}, {tally.BSATCalls, 8}, {tally.XORRows, 8},
	{tally.XORLenSum, 8}, {tally.Conflicts, 8}, {tally.Propagations, 8}, {tally.Learned, 8},
	{tally.Removed, 8}, {tally.Compactions, 8}, {tally.ArenaBytes, 8},
	{tally.SetupRounds, 4}, {tally.EasyCase, 1}, {tally.Q, 4},
}

// VerifySetupFrame checks the frame envelope — magic, version, exact
// length, checksum — without decoding the payload. The store runs it on
// every read so corrupt, truncated, or version-skewed entries are
// quarantined at the I/O boundary, before any structural decode.
func VerifySetupFrame(data []byte) error {
	if len(data) < setupHdrLen+4 {
		return fmt.Errorf("%w: frame of %d bytes", ErrCodec, len(data))
	}
	if string(data[:4]) != setupMagic {
		return fmt.Errorf("%w: bad magic", ErrCodec)
	}
	le := binary.LittleEndian
	if v := le.Uint16(data[4:]); v != setupVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrCodec, v, setupVersion)
	}
	plen := int(le.Uint32(data[6:]))
	if len(data) != setupHdrLen+plen+4 {
		return fmt.Errorf("%w: frame length %d, header says %d", ErrCodec, len(data), setupHdrLen+plen+4)
	}
	body := setupHdrLen + plen
	if got, want := crc32.Checksum(data[:body], crcTable), le.Uint32(data[body:]); got != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCodec)
	}
	return nil
}

// EncodedFingerprint extracts the formula fingerprint from an encoded
// setup frame after envelope verification, without decoding the rest of
// the payload. The service's disk tier uses it to confirm a store entry
// answers the formula actually requested before paying for the decode.
func EncodedFingerprint(data []byte) ([32]byte, error) {
	var fp [32]byte
	if err := VerifySetupFrame(data); err != nil {
		return fp, err
	}
	if int(binary.LittleEndian.Uint32(data[6:])) < 32 {
		return fp, fmt.Errorf("%w: payload too short for fingerprint", ErrCodec)
	}
	copy(fp[:], data[setupHdrLen:])
	return fp, nil
}

// setupReader is a bounds-checked cursor over the payload.
type setupReader struct {
	data []byte
	off  int
}

func (r *setupReader) remaining() int { return len(r.data) - r.off }

func (r *setupReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated payload at byte %d", ErrCodec, r.off)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *setupReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated payload at byte %d", ErrCodec, r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *setupReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated payload at byte %d", ErrCodec, r.off)
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *setupReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *setupReader) bool() (bool, error) {
	b, err := r.u8()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: boolean byte %d", ErrCodec, b)
	}
	return b == 1, nil
}

// vars reads a u32 count and that many variables in 1..numVars.
func (r *setupReader) vars(what string, numVars int) ([]cnf.Var, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n)*4 > int64(r.remaining()) {
		return nil, fmt.Errorf("%w: %s-set count %d exceeds payload", ErrCodec, what, n)
	}
	out := make([]cnf.Var, n)
	for i := range out {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		if v < 1 || int(v) > numVars {
			return nil, fmt.Errorf("%w: %s variable %d outside 1..%d", ErrCodec, what, v, numVars)
		}
		out[i] = cnf.Var(v)
	}
	return out, nil
}

// estimate reads an appendEstimate field.
func (r *setupReader) estimate() (*big.Int, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	eb, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	// big.Int.Bytes() is canonical: non-empty, no leading zero.
	// Anything else would re-encode shorter and break the fixpoint.
	if len(eb) == 0 || eb[0] == 0 {
		return nil, fmt.Errorf("%w: non-canonical estimate bytes", ErrCodec)
	}
	return new(big.Int).SetBytes(eb), nil
}

func (r *setupReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("%w: truncated payload at byte %d", ErrCodec, r.off)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// DecodeSetup rehydrates a Setup from an Encode frame. opts supplies
// the runtime configuration the encoding deliberately omits — the
// solver budgets — exactly as NewSetup would have received it;
// opts.Epsilon must match the encoded epsilon (zero adopts it). The
// returned Setup has no spare session: the first NewSession or
// NewSessionWith call builds a solver lazily, so rehydration itself
// performs no solver work at all.
func DecodeSetup(data []byte, opts Options) (*Setup, error) {
	if err := VerifySetupFrame(data); err != nil {
		return nil, err
	}
	plen := int(binary.LittleEndian.Uint32(data[6:]))
	r := &setupReader{data: data[setupHdrLen : setupHdrLen+plen]}

	fpb, err := r.take(32)
	if err != nil {
		return nil, err
	}
	var fp [32]byte
	copy(fp[:], fpb)

	eps, err := r.f64()
	if err != nil {
		return nil, err
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = eps
	} else if math.Float64bits(opts.Epsilon) != math.Float64bits(eps) {
		return nil, fmt.Errorf("%w: encoded for epsilon %v, requested %v", ErrCodec, eps, opts.Epsilon)
	}

	f, n, err := cnf.DecodeBinary(r.data[r.off:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	r.off += n
	if cnf.Fingerprint(f) != fp {
		return nil, fmt.Errorf("%w: fingerprint does not match encoded formula", ErrCodec)
	}

	s, err := r.vars("sampling", f.NumVars)
	if err != nil {
		return nil, err
	}
	h, err := r.vars("hash", f.NumVars)
	if err != nil {
		return nil, err
	}
	if !orderedSubset(h, s) {
		return nil, fmt.Errorf("%w: hash set is not an ordered subset of the sampling set", ErrCodec)
	}

	var kp KappaPivot
	if kp.Kappa, err = r.f64(); err != nil {
		return nil, err
	}
	pv, err := r.u32()
	if err != nil {
		return nil, err
	}
	kp.Pivot = int(pv)
	ht, err := r.u32()
	if err != nil {
		return nil, err
	}
	kp.HiThresh = int(ht)
	if kp.LoThresh, err = r.f64(); err != nil {
		return nil, err
	}
	want, kerr := ComputeKappaPivot(opts.Epsilon)
	if kerr != nil || want != kp {
		return nil, fmt.Errorf("%w: kappa/pivot does not match epsilon %v", ErrCodec, opts.Epsilon)
	}

	easySet, err := r.bool()
	if err != nil {
		return nil, err
	}
	ne, err := r.u32()
	if err != nil {
		return nil, err
	}
	width := (f.NumVars + 7) / 8
	if ne > MaxEncodedWitnesses || int64(ne)*int64(max(width, 1)) > int64(r.remaining()) {
		return nil, fmt.Errorf("%w: witness count %d exceeds payload", ErrCodec, ne)
	}
	if !easySet && ne != 0 {
		return nil, fmt.Errorf("%w: %d witnesses without easy-case flag", ErrCodec, ne)
	}
	var easy []cnf.Assignment
	if ne > 0 {
		easy = make([]cnf.Assignment, ne)
	}
	for i := range easy {
		row, err := r.take(width)
		if err != nil {
			return nil, err
		}
		a := cnf.NewAssignment(f.NumVars)
		for v := 1; v <= f.NumVars; v++ {
			if row[(v-1)/8]&(1<<uint((v-1)%8)) != 0 {
				a[v] = true
			}
		}
		easy[i] = a
	}

	qv, err := r.u32()
	if err != nil {
		return nil, err
	}
	su := &Setup{f: f, s: s, h: h, kp: kp, opts: opts, easy: easy, easySet: easySet, q: int(qv)}
	if err := r.count(su); err != nil {
		return nil, err
	}

	var base Stats
	for _, c := range statsBlock {
		b, err := r.take(c.width)
		if err != nil {
			return nil, err
		}
		var v [8]byte
		copy(v[:], b)
		base[c.id] = int64(binary.LittleEndian.Uint64(v[:]))
	}
	if base[tally.EasyCase] > 1 || base.EasyCase() != easySet {
		return nil, fmt.Errorf("%w: stats easy-case flag disagrees with setup", ErrCodec)
	}
	if base.Q() != su.q {
		return nil, fmt.Errorf("%w: stats q=%d disagrees with setup q=%d", ErrCodec, base.Q(), su.q)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCodec, r.remaining())
	}
	su.base = base
	return su, nil
}

// count reads the count tag and what follows it into su, whose hash
// set, κ/pivot, easy-case flag and q are already decoded, and checks
// that q is line 10's q for it.
func (r *setupReader) count(su *Setup) error {
	tag, err := r.u8()
	if err != nil {
		return err
	}
	if (tag == countNone) != su.easySet {
		return fmt.Errorf("%w: count tag %d with easy-case flag %v", ErrCodec, tag, su.easySet)
	}
	switch tag {
	case countNone:
		if su.q != 0 {
			return fmt.Errorf("%w: easy-case setup with q=%d", ErrCodec, su.q)
		}
		return nil
	case countFinished:
		if su.est, err = r.estimate(); err != nil {
			return err
		}
		if q := su.lineTen(su.est); q != su.q {
			return fmt.Errorf("%w: q=%d, line 10 gives %d for estimate %v", ErrCodec, su.q, q, su.est)
		}
		return nil
	case countSettled:
		return r.settledRun(su)
	}
	return fmt.Errorf("%w: count tag %d", ErrCodec, tag)
}

// settledRun reads a countSettled run state into su.amc.
func (r *setupReader) settledRun(su *Setup) error {
	rng, err := r.u64()
	if err != nil {
		return err
	}
	var fields [3]uint32 // search start, rounds left, estimate count
	for i := range fields {
		if fields[i], err = r.u32(); err != nil {
			return err
		}
	}
	start, left, m := fields[0], fields[1], fields[2]
	if start < 1 || int64(start) >= int64(len(su.h)) {
		return fmt.Errorf("%w: search start %d outside 1..%d", ErrCodec, start, len(su.h)-1)
	}
	if left < 1 || m < 1 {
		return fmt.Errorf("%w: settled run with %d rounds left and %d estimates", ErrCodec, left, m)
	}
	if int64(m)*5 > int64(r.remaining()) { // an estimate takes at least 5 bytes
		return fmt.Errorf("%w: estimate count %d exceeds payload", ErrCodec, m)
	}
	ests := make([]*big.Int, m)
	for i := range ests {
		if ests[i], err = r.estimate(); err != nil {
			return err
		}
		if i > 0 && ests[i].Cmp(ests[i-1]) < 0 {
			return fmt.Errorf("%w: estimates out of order", ErrCodec)
		}
	}
	su.amc = counter.ApproxMCState{RNG: rng, Start: int(start), Left: int(left), Estimates: ests}
	if q, ok := su.settled(counter.ResumeApproxMC(su.amc, su.amcOptions())); !ok || q != su.q {
		return fmt.Errorf("%w: run state does not settle q=%d", ErrCodec, su.q)
	}
	return nil
}
