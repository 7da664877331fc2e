// Package bitvec is a word-level (SMT bit-vector-style) constraint
// front-end over the circuit substrate: expressions over fixed-width
// bit-vectors are bit-blasted to CNF with the bit-vector variables as
// the sampling set. The DAC'14 conclusion names exactly this direction
// ("the design of scalable generators with similar guarantees for SMT
// constraints") as future work; bit-blasting with a declared
// independent support is its standard realization, and the paper's own
// "bit-blasted versions of SMTLib benchmarks" (§5) are instances of it.
package bitvec

import (
	"fmt"

	"unigen/internal/circuit"
	"unigen/internal/cnf"
)

// Expr is a bit-vector expression. Expressions are built through the
// Context and are immutable.
type Expr struct {
	width int
	id    int
}

// Width returns the expression's bit width (0 for booleans).
func (e Expr) Width() int { return e.width }

type exprKind int

const (
	kVar exprKind = iota
	kConst
	kAdd
	kMul
	kAnd
	kOr
	kXor
	kNot
	kNeg
	kShl
	kLshr
	kEq
	kUlt
	kUle
	kIte
	kExtract
	kConcat
	kBoolAnd
	kBoolOr
	kBoolNot
)

type exprNode struct {
	kind  exprKind
	width int
	args  []int
	k     uint64 // constant value / shift amount / extract offset
	name  string
}

// Context builds and bit-blasts bit-vector constraints.
type Context struct {
	nodes   []exprNode
	asserts []int // boolean expr ids asserted true
	vars    []int // variable expr ids, in declaration order
}

// NewContext returns an empty constraint context.
func NewContext() *Context { return &Context{} }

func (c *Context) add(n exprNode) Expr {
	c.nodes = append(c.nodes, n)
	return Expr{width: n.width, id: len(c.nodes) - 1}
}

func (c *Context) checkSameWidth(op string, a, b Expr) {
	if a.width != b.width {
		panic(fmt.Sprintf("bitvec: %s width mismatch %d vs %d", op, a.width, b.width))
	}
}

// Var declares a fresh w-bit variable. Variables form the sampling set
// of the blasted formula.
func (c *Context) Var(name string, w int) Expr {
	if w <= 0 {
		panic("bitvec: variable width must be positive")
	}
	e := c.add(exprNode{kind: kVar, width: w, name: name})
	c.vars = append(c.vars, e.id)
	return e
}

// Const builds a w-bit constant.
func (c *Context) Const(v uint64, w int) Expr {
	if w <= 0 || w > 64 {
		panic("bitvec: constant width must be in 1..64")
	}
	return c.add(exprNode{kind: kConst, width: w, k: v & mask(w)})
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(w)) - 1
}

// Add returns a+b (mod 2^w).
func (c *Context) Add(a, b Expr) Expr {
	c.checkSameWidth("Add", a, b)
	return c.add(exprNode{kind: kAdd, width: a.width, args: []int{a.id, b.id}})
}

// Mul returns a*b (mod 2^w).
func (c *Context) Mul(a, b Expr) Expr {
	c.checkSameWidth("Mul", a, b)
	return c.add(exprNode{kind: kMul, width: a.width, args: []int{a.id, b.id}})
}

// Neg returns two's-complement negation.
func (c *Context) Neg(a Expr) Expr {
	return c.add(exprNode{kind: kNeg, width: a.width, args: []int{a.id}})
}

// Sub returns a-b (mod 2^w).
func (c *Context) Sub(a, b Expr) Expr { return c.Add(a, c.Neg(b)) }

// And/Or/Xor/Not are bitwise.
func (c *Context) And(a, b Expr) Expr {
	c.checkSameWidth("And", a, b)
	return c.add(exprNode{kind: kAnd, width: a.width, args: []int{a.id, b.id}})
}

// Or returns bitwise or.
func (c *Context) Or(a, b Expr) Expr {
	c.checkSameWidth("Or", a, b)
	return c.add(exprNode{kind: kOr, width: a.width, args: []int{a.id, b.id}})
}

// Xor returns bitwise xor.
func (c *Context) Xor(a, b Expr) Expr {
	c.checkSameWidth("Xor", a, b)
	return c.add(exprNode{kind: kXor, width: a.width, args: []int{a.id, b.id}})
}

// Not returns bitwise complement.
func (c *Context) Not(a Expr) Expr {
	return c.add(exprNode{kind: kNot, width: a.width, args: []int{a.id}})
}

// Shl shifts left by constant k.
func (c *Context) Shl(a Expr, k int) Expr {
	return c.add(exprNode{kind: kShl, width: a.width, args: []int{a.id}, k: uint64(k)})
}

// Lshr shifts right (logical) by constant k.
func (c *Context) Lshr(a Expr, k int) Expr {
	return c.add(exprNode{kind: kLshr, width: a.width, args: []int{a.id}, k: uint64(k)})
}

// Extract returns bits [lo, lo+w) of a.
func (c *Context) Extract(a Expr, lo, w int) Expr {
	if lo < 0 || w <= 0 || lo+w > a.width {
		panic("bitvec: extract out of range")
	}
	return c.add(exprNode{kind: kExtract, width: w, args: []int{a.id}, k: uint64(lo)})
}

// Concat returns b ++ a with a in the low bits.
func (c *Context) Concat(hi, lo Expr) Expr {
	return c.add(exprNode{kind: kConcat, width: hi.width + lo.width, args: []int{hi.id, lo.id}})
}

// Eq returns the boolean a = b.
func (c *Context) Eq(a, b Expr) Expr {
	c.checkSameWidth("Eq", a, b)
	return c.add(exprNode{kind: kEq, width: 0, args: []int{a.id, b.id}})
}

// Ult returns the boolean a < b (unsigned).
func (c *Context) Ult(a, b Expr) Expr {
	c.checkSameWidth("Ult", a, b)
	return c.add(exprNode{kind: kUlt, width: 0, args: []int{a.id, b.id}})
}

// Ule returns the boolean a <= b (unsigned).
func (c *Context) Ule(a, b Expr) Expr {
	c.checkSameWidth("Ule", a, b)
	return c.add(exprNode{kind: kUle, width: 0, args: []int{a.id, b.id}})
}

// Ite returns cond ? a : b. cond must be boolean (width 0).
func (c *Context) Ite(cond, a, b Expr) Expr {
	if cond.width != 0 {
		panic("bitvec: Ite condition must be boolean")
	}
	c.checkSameWidth("Ite", a, b)
	return c.add(exprNode{kind: kIte, width: a.width, args: []int{cond.id, a.id, b.id}})
}

// BoolAnd conjoins booleans.
func (c *Context) BoolAnd(a, b Expr) Expr {
	if a.width != 0 || b.width != 0 {
		panic("bitvec: BoolAnd on non-boolean")
	}
	return c.add(exprNode{kind: kBoolAnd, width: 0, args: []int{a.id, b.id}})
}

// BoolOr disjoins booleans.
func (c *Context) BoolOr(a, b Expr) Expr {
	if a.width != 0 || b.width != 0 {
		panic("bitvec: BoolOr on non-boolean")
	}
	return c.add(exprNode{kind: kBoolOr, width: 0, args: []int{a.id, b.id}})
}

// BoolNot negates a boolean.
func (c *Context) BoolNot(a Expr) Expr {
	if a.width != 0 {
		panic("bitvec: BoolNot on non-boolean")
	}
	return c.add(exprNode{kind: kBoolNot, width: 0, args: []int{a.id}})
}

// Assert requires a boolean expression to hold in every witness.
func (c *Context) Assert(e Expr) {
	if e.width != 0 {
		panic("bitvec: Assert on non-boolean expression")
	}
	c.asserts = append(c.asserts, e.id)
}

// Blasted is the bit-blasting result.
type Blasted struct {
	Formula *cnf.Formula
	// VarBits maps each declared variable (by name) to its CNF
	// variables, LSB first; their concatenation is the sampling set.
	VarBits map[string][]cnf.Var
}

// Blast bit-blasts the asserted constraints to CNF. The sampling set is
// the declared bit-vector variables' bits — an independent support by
// construction (every internal signal is a function of them).
func (c *Context) Blast() (*Blasted, error) {
	b := circuit.NewBuilder()
	words := make([]circuit.Word, len(c.nodes))
	bools := make([]circuit.Sig, len(c.nodes))
	varNames := map[int]string{}
	for id, n := range c.nodes {
		switch n.kind {
		case kVar:
			words[id] = b.InputWord(n.width)
			varNames[id] = n.name
		case kConst:
			words[id] = b.ConstWord(n.k, n.width)
		case kAdd:
			words[id] = b.AddWord(words[n.args[0]], words[n.args[1]])[:n.width]
		case kMul:
			words[id] = b.MulWord(words[n.args[0]], words[n.args[1]], n.width)
		case kNeg:
			inv := b.NotWord(words[n.args[0]])
			words[id] = b.AddWord(inv, b.ConstWord(1, n.width))[:n.width]
		case kAnd:
			words[id] = b.AndWord(words[n.args[0]], words[n.args[1]])
		case kOr:
			words[id] = b.OrWord(words[n.args[0]], words[n.args[1]])
		case kXor:
			words[id] = b.XorWord(words[n.args[0]], words[n.args[1]])
		case kNot:
			words[id] = b.NotWord(words[n.args[0]])
		case kShl:
			words[id] = b.ShlWord(words[n.args[0]], int(n.k))
		case kLshr:
			src := words[n.args[0]]
			out := make(circuit.Word, n.width)
			for i := 0; i < n.width; i++ {
				if i+int(n.k) < len(src) {
					out[i] = b.Buf(src[i+int(n.k)])
				} else {
					out[i] = b.Const(false)
				}
			}
			words[id] = out
		case kExtract:
			src := words[n.args[0]]
			out := make(circuit.Word, n.width)
			for i := 0; i < n.width; i++ {
				out[i] = b.Buf(src[int(n.k)+i])
			}
			words[id] = out
		case kConcat:
			hi, lo := words[n.args[0]], words[n.args[1]]
			out := make(circuit.Word, 0, n.width)
			out = append(out, lo...)
			out = append(out, hi...)
			words[id] = out
		case kEq:
			x, y := words[n.args[0]], words[n.args[1]]
			acc := b.Const(true)
			for i := range x {
				acc = b.And(acc, b.Xnor(x[i], y[i]))
			}
			bools[id] = acc
		case kUlt:
			bools[id] = b.LessThan(words[n.args[0]], words[n.args[1]])
		case kUle:
			bools[id] = b.Not(b.LessThan(words[n.args[1]], words[n.args[0]]))
		case kIte:
			words[id] = b.MuxWord(bools[n.args[0]], words[n.args[1]], words[n.args[2]])
		case kBoolAnd:
			bools[id] = b.And(bools[n.args[0]], bools[n.args[1]])
		case kBoolOr:
			bools[id] = b.Or(bools[n.args[0]], bools[n.args[1]])
		case kBoolNot:
			bools[id] = b.Not(bools[n.args[0]])
		default:
			return nil, fmt.Errorf("bitvec: unhandled expression kind %d", n.kind)
		}
	}
	for _, a := range c.asserts {
		b.Output(bools[a])
	}
	cir := b.Build()
	enc, err := circuit.Encode(cir)
	if err != nil {
		return nil, err
	}
	for _, o := range cir.Outputs {
		enc.AssertTrue(o)
	}
	out := &Blasted{Formula: enc.Formula, VarBits: map[string][]cnf.Var{}}
	// Map variable bits: inputs were declared in node order.
	inputIdx := 0
	for id, n := range c.nodes {
		if n.kind != kVar {
			continue
		}
		bits := make([]cnf.Var, n.width)
		for i := 0; i < n.width; i++ {
			bits[i] = enc.InputVars[inputIdx]
			inputIdx++
		}
		out.VarBits[varNames[id]] = bits
	}
	return out, nil
}

// Value decodes a variable's value from a witness assignment.
func (bl *Blasted) Value(name string, a cnf.Assignment) (uint64, error) {
	bits, ok := bl.VarBits[name]
	if !ok {
		return 0, fmt.Errorf("bitvec: unknown variable %q", name)
	}
	if len(bits) > 64 {
		return 0, fmt.Errorf("bitvec: variable %q wider than 64 bits", name)
	}
	var v uint64
	for i, b := range bits {
		if a.Get(b) {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}
