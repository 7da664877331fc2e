package benchgen

import (
	"fmt"

	"unigen/internal/circuit"
	"unigen/internal/randx"
)

// dims holds the per-scale size knobs of a family instance.
type dims struct {
	small, medium, full int
}

func (d dims) at(s Scale) int {
	switch s {
	case ScaleSmall:
		return d.small
	case ScaleMedium:
		return d.medium
	default:
		return d.full
	}
}

// ---------------------------------------------------------------------
// Family: case* — free-input random combinational circuits. The CNF is
// pure Tseitin structure, so |R_F| = 2^|S| exactly; case110's 16384
// witnesses (2^14) match the Figure 1 instance.
// ---------------------------------------------------------------------

func buildCase(inputs, gates int) func(Scale, uint64) (*Instance, error) {
	return func(scale Scale, seed uint64) (*Instance, error) {
		rng := randx.New(seed)
		b := circuit.NewBuilder()
		sigs := make([]circuit.Sig, 0, inputs+gates)
		for i := 0; i < inputs; i++ {
			sigs = append(sigs, b.Input())
		}
		for g := 0; g < gates; g++ {
			sigs = append(sigs, randomGate(b, sigs, rng))
		}
		for i := 0; i < 4 && i < len(sigs); i++ {
			b.Output(sigs[len(sigs)-1-i])
		}
		c := b.Build()
		enc, err := circuit.Encode(c)
		if err != nil {
			return nil, err
		}
		return &Instance{F: enc.Formula}, nil
	}
}

func randomGate(b *circuit.Builder, sigs []circuit.Sig, rng *randx.RNG) circuit.Sig {
	a := sigs[rng.Intn(len(sigs))]
	c := sigs[rng.Intn(len(sigs))]
	switch rng.Intn(5) {
	case 0:
		return b.And(a, c)
	case 1:
		return b.Or(a, c)
	case 2:
		return b.Xor(a, c)
	case 3:
		return b.Nand(a, c)
	default:
		return b.Not(a)
	}
}

// ---------------------------------------------------------------------
// Family: s* — ISCAS89-style sequential netlists with parity conditions
// "on randomly chosen subsets of outputs and next-state variables" (§5).
// The netlist is a random gate network with latch feedback, unrolled
// over several frames; parity right-hand sides are anchored to a
// concrete simulation so every instance is satisfiable.
// ---------------------------------------------------------------------

type seqParams struct {
	inputs, latches, gates, frames, parity int
}

func buildSeqParity(p map[Scale]seqParams) func(Scale, uint64) (*Instance, error) {
	return func(scale Scale, seed uint64) (*Instance, error) {
		pr := p[scale]
		rng := randx.New(seed)
		b := circuit.NewBuilder()
		var sigs []circuit.Sig
		for i := 0; i < pr.inputs; i++ {
			sigs = append(sigs, b.Input())
		}
		type pending struct{ set func(circuit.Sig) }
		var loops []pending
		for i := 0; i < pr.latches; i++ {
			q, setD := b.LatchLoop()
			sigs = append(sigs, q)
			loops = append(loops, pending{setD})
		}
		for g := 0; g < pr.gates; g++ {
			sigs = append(sigs, randomGate(b, sigs, rng))
		}
		// Latch next-states and primary outputs from late signals.
		for _, lp := range loops {
			lp.set(sigs[len(sigs)-1-rng.Intn(min(len(sigs), pr.gates/2+1))])
		}
		nOut := max(2, pr.latches/2)
		for i := 0; i < nOut; i++ {
			b.Output(sigs[len(sigs)-1-rng.Intn(min(len(sigs), pr.gates/2+1))])
		}
		c := b.Build()
		u, err := c.Unroll(pr.frames)
		if err != nil {
			return nil, err
		}
		enc, err := circuit.Encode(u)
		if err != nil {
			return nil, err
		}
		in := randomInputs(u, rng)
		vals, err := u.Eval(in, nil)
		if err != nil {
			return nil, err
		}
		anchorParity(enc, vals, u.Outputs, pr.parity, rng)
		return &Instance{F: enc.Formula}, nil
	}
}

// ---------------------------------------------------------------------
// Family: Squaring* — bit-blasted algebraic-identity miters:
// (a+b)² ≡ a² + 2ab + b² over w-bit arithmetic, so every input vector
// is a witness and the independent support is the 2w input bits.
// Variants differ in seed and in the number of additional anchored
// parity conditions on the result bits.
// ---------------------------------------------------------------------

func buildSquaring(width dims, parity int) func(Scale, uint64) (*Instance, error) {
	return func(scale Scale, seed uint64) (*Instance, error) {
		w := width.at(scale)
		rng := randx.New(seed)
		b := circuit.NewBuilder()
		a := b.InputWord(w)
		c := b.InputWord(w)
		outW := 2 * w
		lhs := b.SquareWord(b.AddWord(a, c), outW) // (a+b)²
		a2 := b.SquareWord(a, outW)
		c2 := b.SquareWord(c, outW)
		ab := b.MulWord(a, c, outW)
		rhs := b.AddWord(b.AddWord(a2, c2), b.ShlWord(ab, 1)) // a²+b²+2ab
		diff := b.XorWord(lhs, rhs[:outW])
		for _, s := range diff {
			b.Output(s)
		}
		for _, s := range lhs {
			b.Output(s)
		}
		cir := b.Build()
		enc, err := circuit.Encode(cir)
		if err != nil {
			return nil, err
		}
		for _, s := range diff {
			enc.AssertFalse(s) // the identity holds: miter must be 0
		}
		in := randomInputs(cir, rng)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return nil, err
		}
		lhsSigs := make([]circuit.Sig, len(lhs))
		copy(lhsSigs, lhs)
		anchorParity(enc, vals, lhsSigs, parity, rng)
		return &Instance{F: enc.Formula}, nil
	}
}

// ---------------------------------------------------------------------
// Family: Karatsuba — equivalence miter between a Karatsuba multiplier
// and an array multiplier; witnesses are all input pairs.
// ---------------------------------------------------------------------

func buildKaratsuba(width dims) func(Scale, uint64) (*Instance, error) {
	return func(scale Scale, seed uint64) (*Instance, error) {
		w := width.at(scale)
		b := circuit.NewBuilder()
		a := b.InputWord(w)
		c := b.InputWord(w)
		outW := 2 * w
		kar := b.KaratsubaMul(a, c, outW, 4)
		arr := b.MulWord(a, c, outW)
		diff := b.XorWord(kar, arr)
		for _, s := range diff {
			b.Output(s)
		}
		cir := b.Build()
		enc, err := circuit.Encode(cir)
		if err != nil {
			return nil, err
		}
		for _, s := range diff {
			enc.AssertFalse(s)
		}
		return &Instance{F: enc.Formula}, nil
	}
}

// ---------------------------------------------------------------------
// Family: sketch-style program benchmarks. Each models a bit-vector
// program over a small seed (the sketch's unknown/control bits — the
// independent support), unrolled into a deep combinational pipeline
// with asserted invariants, plus anchored parity conditions standing in
// for the original assertions' data constraints.
// ---------------------------------------------------------------------

type sketchParams struct {
	seedBits int // |S|
	words    int // working values derived from the seed
	width    int // bits per word
	depth    int // pipeline rounds
	parity   int // anchored parity conditions
}

// expandSeed derives the i-th working word from the seed by rotation
// and a round-constant XOR, so all derived state is seed-determined.
func expandSeed(b *circuit.Builder, seedW circuit.Word, width, i int) circuit.Word {
	w := make(circuit.Word, width)
	n := len(seedW)
	for j := 0; j < width; j++ {
		w[j] = b.Buf(seedW[(j+3*i)%n])
	}
	cst := uint64(0x9e3779b97f4a7c15) >> uint(i%32)
	return b.XorWord(w, b.ConstWord(cst, width))
}

// mixRound applies one ARX-style mixing round in place.
func mixRound(b *circuit.Builder, ws []circuit.Word, r int) {
	n := len(ws)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum := b.AddWord(ws[i], ws[j])
		ws[i] = b.XorWord(b.RotlWord(sum[:len(ws[i])], (r+i)%len(ws[i])), ws[j])
	}
}

func buildSketch(p map[Scale]sketchParams, kind string) func(Scale, uint64) (*Instance, error) {
	return func(scale Scale, seed uint64) (*Instance, error) {
		pr := p[scale]
		rng := randx.New(seed)
		b := circuit.NewBuilder()
		seedW := b.InputWord(pr.seedBits)
		ws := make([]circuit.Word, pr.words)
		for i := range ws {
			ws[i] = expandSeed(b, seedW, pr.width, i)
		}
		original := make([]circuit.Word, len(ws))
		copy(original, ws)

		var invariant circuit.Sig
		switch kind {
		case "sort":
			// Odd-even transposition sorting network; invariant: output
			// is sorted (adjacent ≤ pairs).
			for pass := 0; pass < pr.words; pass++ {
				for i := pass % 2; i+1 < len(ws); i += 2 {
					lo, hi := b.CompareAndSwap(ws[i], ws[i+1])
					ws[i], ws[i+1] = lo, hi
				}
			}
			invariant = b.Const(true)
			for i := 0; i+1 < len(ws); i++ {
				invariant = b.And(invariant, b.Not(b.LessThan(ws[i+1], ws[i])))
			}
		case "reverse":
			// Reverse the word list twice via mixing-aware moves;
			// invariant: double reverse is the identity.
			rev := make([]circuit.Word, len(ws))
			for i := range ws {
				rev[i] = ws[len(ws)-1-i]
			}
			back := make([]circuit.Word, len(rev))
			for i := range rev {
				back[i] = rev[len(rev)-1-i]
			}
			invariant = b.Const(true)
			for i := range ws {
				d := b.XorWord(ws[i], back[i])
				for _, s := range d {
					invariant = b.And(invariant, b.Not(s))
				}
			}
			for r := 0; r < pr.depth; r++ {
				mixRound(b, ws, r)
			}
		case "max":
			// Tree max reduction; invariant: max ≥ every input.
			vals := append([]circuit.Word(nil), ws...)
			for len(vals) > 1 {
				var next []circuit.Word
				for i := 0; i+1 < len(vals); i += 2 {
					_, hi := b.CompareAndSwap(vals[i], vals[i+1])
					next = append(next, hi)
				}
				if len(vals)%2 == 1 {
					next = append(next, vals[len(vals)-1])
				}
				vals = next
			}
			mx := vals[0]
			invariant = b.Const(true)
			for _, w := range original {
				invariant = b.And(invariant, b.Not(b.LessThan(mx, w)))
			}
			ws[0] = mx
		default: // "pipeline": generic ARX state machine (queue/service/
			// tutorial analogues differ only in dimensions)
			for r := 0; r < pr.depth; r++ {
				mixRound(b, ws, r)
			}
			invariant = b.Const(true)
		}
		for _, w := range ws {
			for _, s := range w {
				b.Output(s)
			}
		}
		b.Output(invariant)
		cir := b.Build()
		enc, err := circuit.Encode(cir)
		if err != nil {
			return nil, err
		}
		enc.AssertTrue(cir.Outputs[len(cir.Outputs)-1]) // assert the invariant
		in := randomInputs(cir, rng)
		vals, err := cir.Eval(in, nil)
		if err != nil {
			return nil, err
		}
		if !vals[invariant] {
			return nil, fmt.Errorf("internal: invariant violated in simulation (kind=%s)", kind)
		}
		anchorParity(enc, vals, cir.Outputs[:len(cir.Outputs)-1], pr.parity, rng)
		return &Instance{F: enc.Formula}, nil
	}
}
