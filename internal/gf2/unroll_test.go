package gf2

import (
	"math/bits"
	"testing"

	"unigen/internal/randx"
)

// Property tests pinning the 4-wide unrolled word loops (Len,
// ParityAnd) to straightforward scalar references, across every ragged
// tail length from 1 to 256 columns. The unrolled bodies process
// len(bits)/4*4 words and the tails the rest; any off-by-one in the
// unroll boundary shows up as a mismatch on some width here.

func scalarLen(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func scalarParityAnd(a, b []uint64) bool {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n&1 == 1
}

func randomRow(rng *randx.RNG, ncols int) Row {
	r := NewRow(ncols)
	for c := 0; c < ncols; c++ {
		if rng.Bool() {
			r.Set(c)
		}
	}
	r.RHS = rng.Bool()
	return r
}

func TestUnrolledMatchesScalarAllWidths(t *testing.T) {
	rng := randx.New(0x4f2)
	reps := 8
	if testing.Short() {
		reps = 2
	}
	for ncols := 1; ncols <= 256; ncols++ {
		for rep := 0; rep < reps; rep++ {
			a := randomRow(rng, ncols)
			mask := randomRow(rng, ncols)
			if got, want := a.Len(), scalarLen(a.Bits); got != want {
				t.Fatalf("ncols=%d: Len = %d, want %d", ncols, got, want)
			}
			if got, want := ParityAnd(a.Bits, mask.Bits), scalarParityAnd(a.Bits, mask.Bits); got != want {
				t.Fatalf("ncols=%d: ParityAnd = %v, want %v", ncols, got, want)
			}
		}
	}
}

// Benchmarks comparing the unrolled loops against the scalar
// references above, on rows of ≥8 words where the unroll pays.
func benchRows(nwords int) (a, b Row) {
	rng := randx.New(uint64(nwords))
	a = randomRow(rng, nwords*64)
	b = randomRow(rng, nwords*64)
	return a, b
}

func BenchmarkParityAndUnrolled(bench *testing.B) {
	for _, nw := range []int{8, 32} {
		a, b := benchRows(nw)
		var sink bool
		bench.Run(sizeName(nw), func(bench *testing.B) {
			for i := 0; i < bench.N; i++ {
				sink = ParityAnd(a.Bits, b.Bits)
			}
		})
		_ = sink
	}
}

func BenchmarkParityAndScalar(bench *testing.B) {
	for _, nw := range []int{8, 32} {
		a, b := benchRows(nw)
		var sink bool
		bench.Run(sizeName(nw), func(bench *testing.B) {
			for i := 0; i < bench.N; i++ {
				sink = scalarParityAnd(a.Bits, b.Bits)
			}
		})
		_ = sink
	}
}

func sizeName(nwords int) string {
	if nwords == 8 {
		return "8words"
	}
	return "32words"
}
