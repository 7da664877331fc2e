package cnf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary formula codec: the fixed-width little-endian encoding the
// persistent prepared-formula store (internal/store, DESIGN §12)
// serializes each prepared setup's formula with. Unlike DIMACS text it is
// presentation-preserving — clause order, literal order, and the
// nil-vs-empty sampling-set distinction all survive a round trip —
// because the setup it is embedded in must rehydrate bit-identically
// (solver ingestion order is part of the determinism story even though
// round outcomes are history-independent). DecodeBinary accepts only
// encodings AppendBinary produces: every accepted input re-encodes to
// the same bytes, which is the fixpoint property FuzzDecodeSetup pins.
//
// Layout (all integers little-endian):
//
//	u32 numVars                      (≤ MaxBinaryVars)
//	u32 clauseCount
//	  per clause: u32 litCount, then u32 per literal (Lit encoding)
//	u32 xorCount
//	  per xor: u32 varCount, u32 per variable, u8 rhs (0|1)
//	u8  samplingTag                  (0 = nil set, 1 = present)
//	  if 1: u32 count, then u32 per variable
//
// Variables must lie in [1, numVars]; rhs and tag bytes must be 0 or 1.
// Anything else — including truncation — is rejected with ErrBinary.

// MaxBinaryVars bounds NumVars in the binary encoding; a count beyond
// it is rejected at decode before any allocation is sized from it.
const MaxBinaryVars = 1 << 26

// ErrBinary tags every malformed-encoding failure of DecodeBinary.
var ErrBinary = errors.New("cnf: invalid binary formula encoding")

// AppendBinary appends the binary encoding of f to dst and returns the
// extended slice. It rejects formulas the decoder could not validate
// back (out-of-range variable counts or literals outside 1..NumVars).
func AppendBinary(dst []byte, f *Formula) ([]byte, error) {
	if f.NumVars < 0 || f.NumVars > MaxBinaryVars {
		return nil, fmt.Errorf("%w: NumVars %d out of range", ErrBinary, f.NumVars)
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(f.NumVars))
	dst = le.AppendUint32(dst, uint32(len(f.Clauses)))
	for _, c := range f.Clauses {
		dst = le.AppendUint32(dst, uint32(len(c)))
		for _, l := range c {
			if l.Var() < 1 || int(l.Var()) > f.NumVars {
				return nil, fmt.Errorf("%w: literal %v outside 1..%d", ErrBinary, l, f.NumVars)
			}
			dst = le.AppendUint32(dst, uint32(l))
		}
	}
	dst = le.AppendUint32(dst, uint32(len(f.XORs)))
	for _, x := range f.XORs {
		dst = le.AppendUint32(dst, uint32(len(x.Vars)))
		for _, v := range x.Vars {
			if v < 1 || int(v) > f.NumVars {
				return nil, fmt.Errorf("%w: xor variable %d outside 1..%d", ErrBinary, v, f.NumVars)
			}
			dst = le.AppendUint32(dst, uint32(v))
		}
		if x.RHS {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	if f.SamplingSet == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = le.AppendUint32(dst, uint32(len(f.SamplingSet)))
		for _, v := range f.SamplingSet {
			if v < 1 || int(v) > f.NumVars {
				return nil, fmt.Errorf("%w: sampling variable %d outside 1..%d", ErrBinary, v, f.NumVars)
			}
			dst = le.AppendUint32(dst, uint32(v))
		}
	}
	return dst, nil
}

// binReader is a bounds-checked cursor over an encoded formula.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) u8() (byte, error) {
	if r.off+1 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinary, r.off)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *binReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrBinary, r.off)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// count reads a u32 element count and rejects values that could not fit
// in the remaining input (elemSize bytes per element), so a hostile
// count can never size an allocation beyond the blob itself.
func (r *binReader) count(elemSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(elemSize) > int64(len(r.data)-r.off) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBinary, n, len(r.data)-r.off)
	}
	return int(n), nil
}

// DecodeBinary decodes one formula from the front of data, returning it
// together with the number of bytes consumed. Trailing bytes are left
// for the caller (the setup codec embeds a formula mid-stream). Every
// error wraps ErrBinary; arbitrary input never panics.
func DecodeBinary(data []byte) (*Formula, int, error) {
	r := &binReader{data: data}
	nv, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if nv > MaxBinaryVars {
		return nil, 0, fmt.Errorf("%w: NumVars %d out of range", ErrBinary, nv)
	}
	f := &Formula{NumVars: int(nv)}

	nc, err := r.count(4) // a clause is at least its u32 length
	if err != nil {
		return nil, 0, err
	}
	if nc > 0 {
		f.Clauses = make([]Clause, 0, nc)
	}
	for i := 0; i < nc; i++ {
		nl, err := r.count(4)
		if err != nil {
			return nil, 0, err
		}
		c := make(Clause, nl)
		for j := range c {
			lv, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			l := Lit(lv)
			if l.Var() < 1 || int(l.Var()) > f.NumVars {
				return nil, 0, fmt.Errorf("%w: literal %d outside 1..%d", ErrBinary, lv, f.NumVars)
			}
			c[j] = l
		}
		f.Clauses = append(f.Clauses, c)
	}

	nx, err := r.count(5) // an xor is at least its length field + rhs byte
	if err != nil {
		return nil, 0, err
	}
	if nx > 0 {
		f.XORs = make([]XORClause, 0, nx)
	}
	for i := 0; i < nx; i++ {
		nvx, err := r.count(4)
		if err != nil {
			return nil, 0, err
		}
		vs := make([]Var, nvx)
		for j := range vs {
			vv, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			if vv < 1 || int(vv) > f.NumVars {
				return nil, 0, fmt.Errorf("%w: xor variable %d outside 1..%d", ErrBinary, vv, f.NumVars)
			}
			vs[j] = Var(vv)
		}
		rhs, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		if rhs > 1 {
			return nil, 0, fmt.Errorf("%w: xor rhs byte %d", ErrBinary, rhs)
		}
		f.XORs = append(f.XORs, XORClause{Vars: vs, RHS: rhs == 1})
	}

	tag, err := r.u8()
	if err != nil {
		return nil, 0, err
	}
	switch tag {
	case 0:
		// nil sampling set ("unspecified"), distinct from an empty one.
	case 1:
		ns, err := r.count(4)
		if err != nil {
			return nil, 0, err
		}
		f.SamplingSet = make([]Var, ns)
		for j := range f.SamplingSet {
			vv, err := r.u32()
			if err != nil {
				return nil, 0, err
			}
			if vv < 1 || int(vv) > f.NumVars {
				return nil, 0, fmt.Errorf("%w: sampling variable %d outside 1..%d", ErrBinary, vv, f.NumVars)
			}
			f.SamplingSet[j] = Var(vv)
		}
	default:
		return nil, 0, fmt.Errorf("%w: sampling-set tag byte %d", ErrBinary, tag)
	}
	return f, r.off, nil
}
