package circuit

import (
	"testing"
	"testing/quick"

	"unigen/internal/bsat"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

func TestEvalBasicGates(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	y := b.Input()
	and := b.And(x, y)
	or := b.Or(x, y)
	xor := b.Xor(x, y)
	not := b.Not(x)
	c := b.Build()
	cases := []struct {
		x, y              bool
		and, or, xor, not bool
	}{
		{false, false, false, false, false, true},
		{false, true, false, true, true, true},
		{true, false, false, true, true, false},
		{true, true, true, true, false, false},
	}
	for _, tc := range cases {
		vals, err := c.Eval([]bool{tc.x, tc.y}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if vals[and] != tc.and || vals[or] != tc.or || vals[xor] != tc.xor || vals[not] != tc.not {
			t.Fatalf("x=%v y=%v: got and=%v or=%v xor=%v not=%v",
				tc.x, tc.y, vals[and], vals[or], vals[xor], vals[not])
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder()
	s, x, y := b.Input(), b.Input(), b.Input()
	m := b.Mux(s, x, y)
	c := b.Build()
	for _, sel := range []bool{false, true} {
		for _, xv := range []bool{false, true} {
			for _, yv := range []bool{false, true} {
				vals, _ := c.Eval([]bool{sel, xv, yv}, nil)
				want := yv
				if sel {
					want = xv
				}
				if vals[m] != want {
					t.Fatalf("mux(%v,%v,%v) = %v, want %v", sel, xv, yv, vals[m], want)
				}
			}
		}
	}
}

// wordVal decodes a word's simulated value.
func wordVal(vals []bool, w Word) uint64 {
	var out uint64
	for i, s := range w {
		if vals[s] {
			out |= 1 << uint(i)
		}
	}
	return out
}

// setInputs packs x into the first len(w) input positions.
func packWord(x uint64, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = x&(1<<uint(i)) != 0
	}
	return out
}

func TestAddWord(t *testing.T) {
	const n = 8
	b := NewBuilder()
	a := b.InputWord(n)
	c := b.InputWord(n)
	sum := b.AddWord(a, c)
	cir := b.Build()
	f := func(x, y uint8) bool {
		in := append(packWord(uint64(x), n), packWord(uint64(y), n)...)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return false
		}
		return wordVal(vals, sum) == uint64(x+y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMulWord(t *testing.T) {
	const n = 6
	b := NewBuilder()
	a := b.InputWord(n)
	c := b.InputWord(n)
	prod := b.MulWord(a, c, 2*n)
	cir := b.Build()
	f := func(x, y uint8) bool {
		xv, yv := uint64(x)&(1<<n-1), uint64(y)&(1<<n-1)
		in := append(packWord(xv, n), packWord(yv, n)...)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return false
		}
		return wordVal(vals, prod) == (xv*yv)&(1<<(2*n)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSquareWord(t *testing.T) {
	const n = 7
	b := NewBuilder()
	a := b.InputWord(n)
	sq := b.SquareWord(a, 2*n)
	cir := b.Build()
	for x := uint64(0); x < 1<<n; x++ {
		vals, err := cir.Eval(packWord(x, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := wordVal(vals, sq); got != (x*x)&(1<<(2*n)-1) {
			t.Fatalf("square(%d) = %d, want %d", x, got, x*x)
		}
	}
}

func TestKaratsubaMatchesMul(t *testing.T) {
	const n = 8
	b := NewBuilder()
	a := b.InputWord(n)
	c := b.InputWord(n)
	kar := b.KaratsubaMul(a, c, 2*n, 2)
	cir := b.Build()
	f := func(x, y uint8) bool {
		in := append(packWord(uint64(x), n), packWord(uint64(y), n)...)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return false
		}
		return wordVal(vals, kar) == uint64(x)*uint64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLessThanAndCompareSwap(t *testing.T) {
	const n = 5
	b := NewBuilder()
	a := b.InputWord(n)
	c := b.InputWord(n)
	lt := b.LessThan(a, c)
	lo, hi := b.CompareAndSwap(a, c)
	cir := b.Build()
	f := func(x, y uint8) bool {
		xv, yv := uint64(x)&(1<<n-1), uint64(y)&(1<<n-1)
		in := append(packWord(xv, n), packWord(yv, n)...)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return false
		}
		wantLo, wantHi := xv, yv
		if yv < xv {
			wantLo, wantHi = yv, xv
		}
		return vals[lt] == (xv < yv) &&
			wordVal(vals, lo) == wantLo && wordVal(vals, hi) == wantHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRotlShl(t *testing.T) {
	const n = 8
	b := NewBuilder()
	a := b.InputWord(n)
	rot := b.RotlWord(a, 3)
	shl := b.ShlWord(a, 2)
	cir := b.Build()
	f := func(x uint8) bool {
		vals, err := cir.Eval(packWord(uint64(x), n), nil)
		if err != nil {
			return false
		}
		wantRot := uint64(x<<3|x>>5) & 0xff
		wantShl := uint64(x<<2) & 0xff
		return wordVal(vals, rot) == wantRot && wordVal(vals, shl) == wantShl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollCounter(t *testing.T) {
	// Unrolled counter: final next-state outputs after k frames must
	// equal k mod 4 (no primary inputs).
	b := NewBuilder()
	q0, setD0 := b.LatchLoop()
	q1, setD1 := b.LatchLoop()
	setD0(b.Not(q0))
	setD1(b.Xor(q1, q0))
	c := b.Build()
	for k := 1; k <= 6; k++ {
		u, err := c.Unroll(k)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := u.Eval(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Final next-state = last two outputs.
		outs := u.Outputs
		s0 := vals[outs[len(outs)-2]]
		s1 := vals[outs[len(outs)-1]]
		got := 0
		if s0 {
			got |= 1
		}
		if s1 {
			got |= 2
		}
		if got != k%4 {
			t.Fatalf("k=%d: state = %d, want %d", k, got, k%4)
		}
	}
}

// TestTseitinConsistency is the keystone test: for every input vector,
// the encoded formula must have exactly one witness extending it, whose
// signal variables equal the simulation values. This is precisely the
// "independent support" property UniGen exploits.
func TestTseitinConsistency(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(4)
	y := b.InputWord(4)
	sum := b.AddWord(x, y)
	b.Output(sum[3])
	checkTseitin(t, b.Build(), 8)
}

// TestBenchUnrollAndEncode runs the paper's ISCAS89 pipeline end to end:
// a sequential netlist (three inputs and two latches fed back through
// NAND and XOR gates) is unrolled over three frames, bounded-model-
// checking style, and Tseitin-encoded; the sampling set must be the
// unrolled primary inputs, and the encoding must satisfy the same
// consistency property as a combinational circuit.
func TestBenchUnrollAndEncode(t *testing.T) {
	b := NewBuilder()
	in := b.InputWord(3)
	q0, setD0 := b.LatchLoop()
	q1, setD1 := b.LatchLoop()
	d0 := b.Nand(in[0], q0)
	d1 := b.Xor(in[1], q1)
	setD0(d0)
	setD1(d1)
	b.Output(b.And(b.Or(b.Not(in[2]), d0), d1))
	u, err := b.Build().Unroll(3)
	if err != nil {
		t.Fatal(err)
	}
	checkTseitin(t, u, 9) // 3 inputs × 3 frames
}

// checkTseitin encodes the combinational circuit cir and checks that
// its inputs are the sampling set, that it has exactly 2^inputs
// projected witnesses, and that the witness extending a random input
// vector agrees with simulation on every signal.
func checkTseitin(t *testing.T, cir *Circuit, inputs int) {
	t.Helper()
	enc, err := Encode(cir)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.InputVars) != inputs || len(enc.Formula.SamplingSet) != inputs {
		t.Fatalf("%d input vars, sampling set of %d; want %d",
			len(enc.InputVars), len(enc.Formula.SamplingSet), inputs)
	}
	// Count projected witnesses: must be 2^inputs (inputs free).
	want := 1 << inputs
	res := bsat.Enumerate(enc.Formula, 2*want, bsat.Options{})
	if n := len(res.Witnesses); !res.Exhausted || n != want {
		t.Fatalf("projected count = %d (exhausted=%v), want %d", n, res.Exhausted, want)
	}
	// Check witness extension correctness on random inputs.
	rng := randx.New(55)
	for iter := 0; iter < 20; iter++ {
		in := make([]bool, inputs)
		for i := range in {
			in[i] = rng.Bool()
		}
		vals, _ := cir.Eval(in, nil)
		// Force inputs via unit clauses and solve.
		g := enc.Formula.Clone()
		for i, v := range enc.InputVars {
			if in[i] {
				g.AddClause(int(v))
			} else {
				g.AddClause(-int(v))
			}
		}
		s := sat.New(g, sat.Config{})
		if s.Solve() != sat.Sat {
			t.Fatalf("no witness for input %v", in)
		}
		m := s.Model()
		for sig, v := range enc.SigVar {
			if m.Get(v) != vals[sig] {
				t.Fatalf("sig %d (%v) = %v, sim %v", sig, cir.Gates[sig].Kind, m.Get(v), vals[sig])
			}
		}
	}
}

func TestEncodeRejectsSequential(t *testing.T) {
	b := NewBuilder()
	q, setD := b.LatchLoop()
	setD(b.Not(q))
	if _, err := Encode(b.Build()); err == nil {
		t.Fatal("Encode accepted a sequential circuit")
	}
}

func TestAssertParityRestrictsWitnesses(t *testing.T) {
	b := NewBuilder()
	x := b.InputWord(6)
	b.Output(x[0])
	cir := b.Build()
	enc, err := Encode(cir)
	if err != nil {
		t.Fatal(err)
	}
	enc.AssertParity([]Sig{Sig(x[0]), Sig(x[1]), Sig(x[2])}, true)
	if n := len(bsat.Enumerate(enc.Formula, 1<<7, bsat.Options{}).Witnesses); n != 32 { // half of 64
		t.Fatalf("count = %d, want 32", n)
	}
}

func TestUnrollErrors(t *testing.T) {
	b := NewBuilder()
	b.Input()
	c := b.Build()
	if _, err := c.Unroll(3); err == nil {
		t.Fatal("unrolling combinational circuit with k=3 accepted")
	}
	b2 := NewBuilder()
	b2.LatchLoop() // next-state never set
	if _, err := b2.Build().Unroll(2); err == nil {
		t.Fatal("latch with unset D accepted")
	}
}

func TestEvalInputMismatch(t *testing.T) {
	b := NewBuilder()
	b.Input()
	c := b.Build()
	if _, err := c.Eval(nil, nil); err == nil {
		t.Fatal("Eval with missing inputs accepted")
	}
}
