package circuit

// Word is a little-endian vector of signals representing an unsigned
// bit-vector value. Index 0 is the least significant bit.
type Word []Sig

// ConstWord builds an n-bit constant word.
func (b *Builder) ConstWord(v uint64, n int) Word {
	w := make(Word, n)
	for i := 0; i < n; i++ {
		w[i] = b.Const(v&(1<<uint(i)) != 0)
	}
	return w
}

// NotWord returns the bitwise complement.
func (b *Builder) NotWord(a Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = b.Not(a[i])
	}
	return out
}

// XorWord returns the bitwise XOR of equal-width words.
func (b *Builder) XorWord(a, c Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = b.Xor(a[i], c[i])
	}
	return out
}

// AndWord returns the bitwise AND of equal-width words.
func (b *Builder) AndWord(a, c Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = b.And(a[i], c[i])
	}
	return out
}

// OrWord returns the bitwise OR of equal-width words.
func (b *Builder) OrWord(a, c Word) Word {
	out := make(Word, len(a))
	for i := range a {
		out[i] = b.Or(a[i], c[i])
	}
	return out
}

// MuxWord returns sel ? t : e elementwise.
func (b *Builder) MuxWord(sel Sig, t, e Word) Word {
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.Mux(sel, t[i], e[i])
	}
	return out
}

// RotlWord rotates left by k bit positions.
func (b *Builder) RotlWord(a Word, k int) Word {
	n := len(a)
	out := make(Word, n)
	for i := 0; i < n; i++ {
		out[(i+k)%n] = b.Buf(a[i])
	}
	return out
}

// ShlWord shifts left by k, filling with zeros, truncating to width.
func (b *Builder) ShlWord(a Word, k int) Word {
	n := len(a)
	out := make(Word, n)
	for i := 0; i < n; i++ {
		if i < k {
			out[i] = b.Const(false)
		} else {
			out[i] = b.Buf(a[i-k])
		}
	}
	return out
}

// fullAdder returns (sum, carry) of three bits.
func (b *Builder) fullAdder(x, y, cin Sig) (sum, cout Sig) {
	s1 := b.Xor(x, y)
	sum = b.Xor(s1, cin)
	cout = b.Or(b.And(x, y), b.And(s1, cin))
	return sum, cout
}

// AddWord returns a+c truncated to the wider operand's width
// (ripple-carry adder).
func (b *Builder) AddWord(a, c Word) Word {
	n := len(a)
	if len(c) > n {
		n = len(c)
	}
	bit := func(w Word, i int) Sig {
		if i < len(w) {
			return w[i]
		}
		return b.Const(false)
	}
	out := make(Word, n)
	carry := b.Const(false)
	for i := 0; i < n; i++ {
		out[i], carry = b.fullAdder(bit(a, i), bit(c, i), carry)
	}
	return out
}

// MulWord returns a*c truncated to width bits (array multiplier:
// shift-and-add of partial products).
func (b *Builder) MulWord(a, c Word, width int) Word {
	acc := b.ConstWord(0, width)
	for i := 0; i < len(c) && i < width; i++ {
		// Partial product: (a << i) AND replicated c[i].
		pp := make(Word, width)
		for j := 0; j < width; j++ {
			if j < i || j-i >= len(a) {
				pp[j] = b.Const(false)
			} else {
				pp[j] = b.And(a[j-i], c[i])
			}
		}
		acc = b.AddWord(acc, pp)
	}
	return acc[:width]
}

// SquareWord returns a² truncated to width bits.
func (b *Builder) SquareWord(a Word, width int) Word {
	return b.MulWord(a, a, width)
}

// KaratsubaMul returns a*c truncated to width bits using recursive
// Karatsuba decomposition above the given threshold (array
// multiplication below it). Mirrors the structure of the paper's
// "Karatsuba" program-synthesis benchmark family.
func (b *Builder) KaratsubaMul(a, c Word, width, threshold int) Word {
	n := len(a)
	if len(c) > n {
		n = len(c)
	}
	// Base case: below the threshold, or too small for the unequal-half
	// recursion to shrink (the (a0+a1) sum needs n-half+1 bits, which
	// only drops below n when n > 3).
	if n <= threshold || n <= 3 {
		return b.MulWord(a, c, width)
	}
	half := n / 2
	split := func(w Word) (lo, hi Word) {
		if len(w) <= half {
			return w, Word{}
		}
		return w[:half], w[half:]
	}
	a0, a1 := split(a)
	c0, c1 := split(c)
	pad := func(w Word, n int) Word {
		out := make(Word, 0, n)
		out = append(out, w...)
		for len(out) < n {
			out = append(out, b.Const(false))
		}
		return out
	}
	sumWidth := func(x, y Word) int {
		n := len(x)
		if len(y) > n {
			n = len(y)
		}
		return n + 1
	}
	z0 := b.KaratsubaMul(a0, c0, width, threshold)                        // lo*lo
	z2 := b.KaratsubaMul(a1, c1, width, threshold)                        // hi*hi
	sa := b.AddWord(pad(a0, sumWidth(a0, a1)), pad(a1, sumWidth(a0, a1))) // a0+a1
	sc := b.AddWord(pad(c0, sumWidth(c0, c1)), pad(c1, sumWidth(c0, c1))) // c0+c1
	z1 := b.KaratsubaMul(sa, sc, width, threshold)                        // (a0+a1)(c0+c1)
	mid := b.AddWord(z1, b.AddWord(b.NotWord(z0), b.NotWord(z2)))         // z1 - z0 - z2
	mid = b.AddWord(mid, b.ConstWord(2, width))                           // two's complement fixup
	res := b.AddWord(z0, b.ShlWord(pad(mid, width), half))
	res = b.AddWord(res, b.ShlWord(pad(z2, width), 2*half))
	return res[:width]
}

// LessThan returns a signal true iff a < c (unsigned, equal widths).
func (b *Builder) LessThan(a, c Word) Sig {
	lt := b.Const(false)
	for i := 0; i < len(a); i++ {
		// From LSB to MSB: lt = (¬a[i]∧c[i]) ∨ (a[i]==c[i] ∧ lt)
		bitLt := b.And(b.Not(a[i]), c[i])
		eq := b.Xnor(a[i], c[i])
		lt = b.Or(bitLt, b.And(eq, lt))
	}
	return lt
}

// CompareAndSwap returns (min, max) of two words — the comparator
// element of sorting networks.
func (b *Builder) CompareAndSwap(a, c Word) (lo, hi Word) {
	swap := b.LessThan(c, a)
	lo = b.MuxWord(swap, c, a)
	hi = b.MuxWord(swap, a, c)
	return lo, hi
}
