// Package gf2 provides the dense bit-packed GF(2) row representation
// shared by every layer that touches parity constraints: hashfam packs
// drawn hash rows into it, and the SAT solver stores and propagates XOR
// clauses in it. One row is 64 coefficient bits per machine word over a
// dense column space, plus a right-hand-side bit — the layout that
// makes hash drawing, watch selection and parity folding word-parallel
// instead of per-variable.
package gf2

import "math/bits"

// WordBits is the number of columns per packed word.
const WordBits = 64

// Words returns the number of 64-bit words needed to cover ncols columns.
func Words(ncols int) int { return (ncols + WordBits - 1) / WordBits }

// TailMask returns the valid-bit mask of the last word covering ncols
// columns: drawing rows from raw RNG words must clear the bits past the
// column space. TailMask(0) is 0.
func TailMask(ncols int) uint64 {
	if r := ncols % WordBits; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	if ncols == 0 {
		return 0
	}
	return ^uint64(0)
}

// Row is one linear constraint over GF(2): coefficient bits over a
// dense column space plus the right-hand-side bit. The zero Row is the
// empty (0 = 0) constraint.
type Row struct {
	Bits []uint64
	RHS  bool
}

// NewRow returns an all-zero row over ncols columns.
func NewRow(ncols int) Row { return Row{Bits: make([]uint64, Words(ncols))} }

// Get reports whether column c's coefficient is set.
func (r Row) Get(c int) bool {
	return r.Bits[c>>6]&(1<<uint(c&63)) != 0
}

// Set sets column c's coefficient.
func (r Row) Set(c int) { r.Bits[c>>6] |= 1 << uint(c&63) }

// Len returns the number of set coefficients (the row's variable count).
func (r Row) Len() int {
	b := r.Bits
	n := 0
	w := 0
	for ; w+4 <= len(b); w += 4 {
		n += bits.OnesCount64(b[w]) + bits.OnesCount64(b[w+1]) +
			bits.OnesCount64(b[w+2]) + bits.OnesCount64(b[w+3])
	}
	for ; w < len(b); w++ {
		n += bits.OnesCount64(b[w])
	}
	return n
}

// Empty reports whether no coefficient is set.
func (r Row) Empty() bool {
	for _, b := range r.Bits {
		if b != 0 {
			return false
		}
	}
	return true
}

// ForEachSet calls fn for every set column in ascending order.
func (r Row) ForEachSet(fn func(c int)) {
	for w, b := range r.Bits {
		for b != 0 {
			fn(w<<6 | bits.TrailingZeros64(b))
			b &= b - 1
		}
	}
}

// ParityAnd returns the parity of the popcount of a AND b, the
// word-parallel fold "XOR of a's coefficients restricted to the mask b"
// (e.g. row bits against the assigned-true mask). b must be at least as
// long as a.
func ParityAnd(a, b []uint64) bool {
	b = b[:len(a)]
	var acc uint64
	w := 0
	for ; w+4 <= len(a); w += 4 {
		acc ^= a[w]&b[w] ^ a[w+1]&b[w+1] ^ a[w+2]&b[w+2] ^ a[w+3]&b[w+3]
	}
	for ; w < len(a); w++ {
		acc ^= a[w] & b[w]
	}
	return bits.OnesCount64(acc)&1 == 1
}
