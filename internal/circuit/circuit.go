// Package circuit provides the gate-level hardware substrate of the
// reproduction: a combinational/sequential circuit model, a simulator,
// netlist builders for the benchmark families of the DAC'14 evaluation
// (ISCAS89-style sequential logic, bit-blasted arithmetic, sketch-style
// synthesis constraints), and a Tseitin encoder whose output formulas
// carry the circuit inputs as their sampling set.
//
// The Tseitin encoder is where the paper's central observation becomes
// concrete: every auxiliary variable the encoding introduces is uniquely
// determined by the circuit inputs, so the inputs form an independent
// support that is often orders of magnitude smaller than the full
// variable count (§4: "when a non-CNF formula G is converted to an
// equisatisfiable CNF formula F using Tseitin encoding, the variables
// introduced by the encoding form a dependent support of F").
package circuit

import "fmt"

// Sig identifies a signal (gate output) in a circuit. Signals are dense
// indices into Circuit.Gates; gate inputs always have smaller indices
// than the gate itself, so index order is a topological order.
type Sig int

// GateKind enumerates gate types.
type GateKind int

// Gate kinds.
const (
	KindConst GateKind = iota // constant; In[0] == 1 means true
	KindInput                 // primary input (or latch output pseudo-input)
	KindNot
	KindBuf
	KindAnd
	KindOr
	KindXor
)

func (k GateKind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindInput:
		return "input"
	case KindNot:
		return "not"
	case KindBuf:
		return "buf"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindXor:
		return "xor"
	default:
		return fmt.Sprintf("gate(%d)", int(k))
	}
}

// Gate is one node of the circuit DAG.
type Gate struct {
	Kind GateKind
	In   [2]Sig // Not/Buf use In[0]; Const uses In[0] as 0/1
}

// Latch is a sequential element: Q is a KindInput pseudo-input holding
// the latch output; D is the next-state function. All latches reset
// to 0.
type Latch struct {
	Q Sig
	D Sig
}

// Circuit is a gate-level netlist.
type Circuit struct {
	Gates   []Gate
	Inputs  []Sig // primary inputs, in declaration order (excludes latch Qs)
	Outputs []Sig
	Latches []Latch
}

// Builder constructs circuits gate by gate.
type Builder struct {
	c Circuit
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Build finalizes and returns the circuit.
func (b *Builder) Build() *Circuit {
	out := b.c
	return &out
}

func (b *Builder) add(g Gate) Sig {
	b.c.Gates = append(b.c.Gates, g)
	return Sig(len(b.c.Gates) - 1)
}

// Const returns a constant signal.
func (b *Builder) Const(v bool) Sig {
	in := Sig(0)
	if v {
		in = 1
	}
	return b.add(Gate{Kind: KindConst, In: [2]Sig{in, 0}})
}

// Input declares a primary input.
func (b *Builder) Input() Sig {
	s := b.add(Gate{Kind: KindInput})
	b.c.Inputs = append(b.c.Inputs, s)
	return s
}

// InputWord declares n primary inputs (LSB first).
func (b *Builder) InputWord(n int) Word {
	w := make(Word, n)
	for i := range w {
		w[i] = b.Input()
	}
	return w
}

// Not returns ¬a.
func (b *Builder) Not(a Sig) Sig { return b.add(Gate{Kind: KindNot, In: [2]Sig{a, 0}}) }

// Buf returns a buffer of a (identity).
func (b *Builder) Buf(a Sig) Sig { return b.add(Gate{Kind: KindBuf, In: [2]Sig{a, 0}}) }

// And returns a∧b.
func (b *Builder) And(a, c Sig) Sig { return b.add(Gate{Kind: KindAnd, In: [2]Sig{a, c}}) }

// Or returns a∨b.
func (b *Builder) Or(a, c Sig) Sig { return b.add(Gate{Kind: KindOr, In: [2]Sig{a, c}}) }

// Xor returns a⊕b.
func (b *Builder) Xor(a, c Sig) Sig { return b.add(Gate{Kind: KindXor, In: [2]Sig{a, c}}) }

// Nand returns ¬(a∧b).
func (b *Builder) Nand(a, c Sig) Sig { return b.Not(b.And(a, c)) }

// Xnor returns ¬(a⊕b).
func (b *Builder) Xnor(a, c Sig) Sig { return b.Not(b.Xor(a, c)) }

// Mux returns sel ? t : e.
func (b *Builder) Mux(sel, t, e Sig) Sig {
	return b.Or(b.And(sel, t), b.And(b.Not(sel), e))
}

// Output marks a signal as a primary output.
func (b *Builder) Output(s Sig) {
	b.c.Outputs = append(b.c.Outputs, s)
}

// Latch declares a sequential element with next-state d and returns its
// output Q (reset value 0).
func (b *Builder) Latch(d Sig) Sig {
	q := b.add(Gate{Kind: KindInput}) // pseudo-input; not in Inputs list
	b.c.Latches = append(b.c.Latches, Latch{Q: q, D: d})
	return q
}

// LatchLoop declares a latch whose next-state function is provided
// after the fact (for feedback loops): it returns Q plus a setter.
func (b *Builder) LatchLoop() (q Sig, setD func(Sig)) {
	q = b.add(Gate{Kind: KindInput})
	b.c.Latches = append(b.c.Latches, Latch{Q: q, D: -1})
	idx := len(b.c.Latches) - 1
	return q, func(d Sig) { b.c.Latches[idx].D = d }
}

// Eval simulates the circuit on the given primary-input values, with
// latch outputs fixed to latchState (nil means all zero). It returns
// the value of every signal.
func (c *Circuit) Eval(inputs []bool, latchState []bool) ([]bool, error) {
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("circuit: got %d input values, want %d", len(inputs), len(c.Inputs))
	}
	if latchState != nil && len(latchState) != len(c.Latches) {
		return nil, fmt.Errorf("circuit: got %d latch values, want %d", len(latchState), len(c.Latches))
	}
	vals := make([]bool, len(c.Gates))
	for i, s := range c.Inputs {
		vals[s] = inputs[i]
	}
	for i, l := range c.Latches {
		if latchState != nil {
			vals[l.Q] = latchState[i]
		}
	}
	for s, g := range c.Gates {
		switch g.Kind {
		case KindConst:
			vals[s] = g.In[0] == 1
		case KindInput:
			// already set
		case KindNot:
			vals[s] = !vals[g.In[0]]
		case KindBuf:
			vals[s] = vals[g.In[0]]
		case KindAnd:
			vals[s] = vals[g.In[0]] && vals[g.In[1]]
		case KindOr:
			vals[s] = vals[g.In[0]] || vals[g.In[1]]
		case KindXor:
			vals[s] = vals[g.In[0]] != vals[g.In[1]]
		default:
			return nil, fmt.Errorf("circuit: unknown gate kind %v", g.Kind)
		}
	}
	return vals, nil
}

// Step simulates one clock cycle: evaluate with the given latch state,
// return output values and the next latch state.
func (c *Circuit) Step(inputs, latchState []bool) (outputs, next []bool, err error) {
	vals, err := c.Eval(inputs, latchState)
	if err != nil {
		return nil, nil, err
	}
	outputs = make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		outputs[i] = vals[o]
	}
	next = make([]bool, len(c.Latches))
	for i, l := range c.Latches {
		next[i] = vals[l.D]
	}
	return outputs, next, nil
}

// Unroll converts a sequential circuit into a combinational one over k
// time frames (bounded-model-checking style): frame 0 latches are 0;
// frame t latches take frame t-1 next-state values. Primary inputs are
// replicated per frame; outputs of every frame are exposed, followed by
// the final next-state signals.
func (c *Circuit) Unroll(k int) (*Circuit, error) {
	if len(c.Latches) == 0 && k != 1 {
		return nil, fmt.Errorf("circuit: unrolling a combinational circuit requires k=1")
	}
	for _, l := range c.Latches {
		if l.D < 0 {
			return nil, fmt.Errorf("circuit: latch with unset next-state")
		}
	}
	b := NewBuilder()
	state := make([]Sig, len(c.Latches))
	for i := range state {
		state[i] = b.Const(false)
	}
	var lastOutputs []Sig
	for t := 0; t < k; t++ {
		m := make([]Sig, len(c.Gates))
		latchIdx := map[Sig]int{}
		for i, l := range c.Latches {
			latchIdx[l.Q] = i
		}
		inputSet := map[Sig]bool{}
		for _, in := range c.Inputs {
			inputSet[in] = true
		}
		for s, g := range c.Gates {
			sig := Sig(s)
			switch g.Kind {
			case KindConst:
				m[s] = b.Const(g.In[0] == 1)
			case KindInput:
				if i, ok := latchIdx[sig]; ok {
					m[s] = b.Buf(state[i])
				} else if inputSet[sig] {
					m[s] = b.Input()
				} else {
					return nil, fmt.Errorf("circuit: dangling pseudo-input %d", s)
				}
			case KindNot:
				m[s] = b.Not(m[g.In[0]])
			case KindBuf:
				m[s] = b.Buf(m[g.In[0]])
			case KindAnd:
				m[s] = b.And(m[g.In[0]], m[g.In[1]])
			case KindOr:
				m[s] = b.Or(m[g.In[0]], m[g.In[1]])
			case KindXor:
				m[s] = b.Xor(m[g.In[0]], m[g.In[1]])
			}
		}
		for _, o := range c.Outputs {
			b.Output(m[o])
			lastOutputs = append(lastOutputs, m[o])
		}
		for i, l := range c.Latches {
			state[i] = m[l.D]
		}
	}
	for _, s := range state {
		b.Output(s) // expose final next-state
	}
	return b.Build(), nil
}
