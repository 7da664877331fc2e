package circuit

import (
	"fmt"

	"unigen/internal/cnf"
)

// Encoded is the result of Tseitin-encoding a circuit.
type Encoded struct {
	Formula *cnf.Formula
	// SigVar maps every signal to its CNF variable.
	SigVar []cnf.Var
	// InputVars are the variables of the primary inputs, in order; they
	// are also the formula's sampling set (an independent support).
	InputVars []cnf.Var
	// OutputVars are the variables of the outputs, in order.
	OutputVars []cnf.Var
}

// Encode Tseitin-encodes a combinational circuit. Every signal receives
// a variable; gate semantics become clauses, XOR gates native XOR
// clauses (as CryptoMiniSAT-era encodings keep parity structure visible
// to the solver); the sampling set is the primary inputs. Sequential
// circuits must be unrolled first.
func Encode(c *Circuit) (*Encoded, error) {
	if len(c.Latches) > 0 {
		return nil, fmt.Errorf("circuit: Encode requires a combinational circuit; call Unroll first")
	}
	f := cnf.New(len(c.Gates))
	sigVar := make([]cnf.Var, len(c.Gates))
	for s := range c.Gates {
		sigVar[s] = cnf.Var(s + 1)
	}
	for s, g := range c.Gates {
		z := sigVar[s]
		switch g.Kind {
		case KindInput:
			// free variable
		case KindConst:
			if g.In[0] == 1 {
				f.AddClause(int(z))
			} else {
				f.AddClause(-int(z))
			}
		case KindNot:
			a := sigVar[g.In[0]]
			f.AddClause(int(z), int(a))
			f.AddClause(-int(z), -int(a))
		case KindBuf:
			a := sigVar[g.In[0]]
			f.AddClause(int(z), -int(a))
			f.AddClause(-int(z), int(a))
		case KindAnd:
			a, b := sigVar[g.In[0]], sigVar[g.In[1]]
			f.AddClause(-int(z), int(a))
			f.AddClause(-int(z), int(b))
			f.AddClause(int(z), -int(a), -int(b))
		case KindOr:
			a, b := sigVar[g.In[0]], sigVar[g.In[1]]
			f.AddClause(int(z), -int(a))
			f.AddClause(int(z), -int(b))
			f.AddClause(-int(z), int(a), int(b))
		case KindXor:
			// z ⊕ a ⊕ b = 0
			f.AddXOR([]cnf.Var{z, sigVar[g.In[0]], sigVar[g.In[1]]}, false)
		default:
			return nil, fmt.Errorf("circuit: cannot encode gate kind %v", g.Kind)
		}
	}
	e := &Encoded{Formula: f, SigVar: sigVar}
	for _, in := range c.Inputs {
		e.InputVars = append(e.InputVars, sigVar[in])
	}
	for _, o := range c.Outputs {
		e.OutputVars = append(e.OutputVars, sigVar[o])
	}
	f.SamplingSet = append([]cnf.Var(nil), e.InputVars...)
	return e, nil
}

// AssertTrue adds a unit clause forcing signal s to 1.
func (e *Encoded) AssertTrue(s Sig) {
	e.Formula.AddClause(int(e.SigVar[s]))
}

// AssertFalse adds a unit clause forcing signal s to 0.
func (e *Encoded) AssertFalse(s Sig) {
	e.Formula.AddClause(-int(e.SigVar[s]))
}

// AssertParity adds the parity condition ⊕sigs = rhs — the "parity
// conditions on randomly chosen subsets of outputs and next-state
// variables" the paper applies to its ISCAS89 benchmarks (§5).
func (e *Encoded) AssertParity(sigs []Sig, rhs bool) {
	vars := make([]cnf.Var, len(sigs))
	for i, s := range sigs {
		vars[i] = e.SigVar[s]
	}
	e.Formula.AddXOR(vars, rhs)
}
