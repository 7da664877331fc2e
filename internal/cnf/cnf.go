// Package cnf defines the Boolean-formula representation shared by every
// component of the UniGen reproduction: CNF clauses, native XOR clauses
// (parity constraints), assignments, and DIMACS I/O including the
// "c ind" sampling-set convention used by the UniGen/ApproxMC tool family.
package cnf

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Var is a propositional variable, numbered from 1 as in DIMACS.
type Var int

// Lit is a literal: a variable or its negation. The encoding is
// lit = 2*var for the positive literal and 2*var+1 for the negation,
// which lets the solver index watch lists and saved phases by literal.
// The zero Lit is invalid and used as a sentinel.
type Lit int

// MkLit builds a literal from a variable and a sign (neg=true means ¬v).
func MkLit(v Var, neg bool) Lit {
	if v <= 0 {
		panic(fmt.Sprintf("cnf: MkLit on non-positive variable %d", v))
	}
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// FromDIMACS converts a signed DIMACS integer (e.g. -3) to a Lit.
func FromDIMACS(x int) Lit {
	if x == 0 {
		panic("cnf: FromDIMACS(0)")
	}
	if x < 0 {
		return MkLit(Var(-x), true)
	}
	return MkLit(Var(x), false)
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// DIMACS returns the signed DIMACS integer for the literal.
func (l Lit) DIMACS() int {
	if l.Neg() {
		return -int(l.Var())
	}
	return int(l.Var())
}

// String renders the literal in DIMACS style.
func (l Lit) String() string { return fmt.Sprintf("%d", l.DIMACS()) }

// Clause is a disjunction of literals.
type Clause []Lit

// XORClause is a parity constraint over Vars: the XOR of the listed
// variables must equal RHS. Variables never repeat within Vars.
type XORClause struct {
	Vars []Var
	RHS  bool
}

// Formula is a CNF formula optionally extended with XOR clauses and an
// optional sampling set (independent support). NumVars is the largest
// variable index in use; clauses may reference vars 1..NumVars.
type Formula struct {
	NumVars     int
	Clauses     []Clause
	XORs        []XORClause
	SamplingSet []Var // nil means "unspecified" (callers default to all vars)
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// AddClause appends a clause given as signed DIMACS integers.
// It grows NumVars if needed and drops duplicate literals. A clause
// containing both l and ¬l is a tautology and is silently skipped.
func (f *Formula) AddClause(lits ...int) {
	c := make(Clause, 0, len(lits))
	for _, x := range lits {
		c = append(c, FromDIMACS(x))
	}
	f.AddClauseLits(c)
}

// AddClauseLits appends a clause of Lits, normalizing as AddClause does.
func (f *Formula) AddClauseLits(c Clause) {
	norm, taut := NormalizeClause(c)
	if taut {
		return
	}
	for _, l := range norm {
		if int(l.Var()) > f.NumVars {
			f.NumVars = int(l.Var())
		}
	}
	f.Clauses = append(f.Clauses, norm)
}

// AddXOR appends the parity constraint v1 ⊕ ... ⊕ vk = rhs.
// Repeated variables cancel pairwise. An empty XOR with rhs=true is
// unsatisfiable and is recorded as an empty CNF clause instead so that
// solvers uniformly detect the conflict; with rhs=false it is a
// tautology and skipped.
func (f *Formula) AddXOR(vars []Var, rhs bool) {
	norm, nrhs := NormalizeXOR(vars, rhs)
	if len(norm) == 0 {
		if nrhs {
			f.Clauses = append(f.Clauses, Clause{}) // 0 = 1: unsatisfiable
		}
		return
	}
	for _, v := range norm {
		if int(v) > f.NumVars {
			f.NumVars = int(v)
		}
	}
	f.XORs = append(f.XORs, XORClause{Vars: norm, RHS: nrhs})
}

// NormalizeClause sorts, deduplicates, and detects tautologies. The
// result is a fresh slice.
func NormalizeClause(c Clause) (Clause, bool) {
	out, taut := NormalizeClauseInto(make(Clause, 0, len(c)), c)
	if taut {
		return nil, true
	}
	return out, false
}

// NormalizeClauseInto is NormalizeClause writing into buf's storage,
// from index 0, so one buffer can serve clause after clause.
func NormalizeClauseInto(buf, c Clause) (Clause, bool) {
	out := append(buf[:0], c...)
	slices.Sort(out)
	w := 0
	for i, l := range out {
		if i > 0 && l == out[i-1] {
			continue
		}
		if i > 0 && l == out[i-1].Not() {
			return out[:0], true
		}
		out[w] = l
		w++
	}
	return out[:w], false
}

// NormalizeXOR sorts variables and cancels repeated pairs
// (x ⊕ x = 0), returning the reduced variable list and RHS.
func NormalizeXOR(vars []Var, rhs bool) ([]Var, bool) {
	vs := make([]Var, len(vars))
	copy(vs, vars)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	for i := 0; i < len(vs); {
		j := i
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, vs[i])
		}
		i = j
	}
	return out, rhs
}

// ExpandXOR returns the CNF expansion of x: the 2^(k−1) clauses over
// its k variables that each rule out one assignment whose parity
// differs from x.RHS. The size is exponential in k, so each caller
// bounds it.
func ExpandXOR(x XORClause) [][]Lit {
	k := len(x.Vars)
	var out [][]Lit
	for mask := 0; mask < 1<<uint(k); mask++ {
		// Bit i of mask is the value of x.Vars[i] in the assignment.
		if odd := bits.OnesCount(uint(mask))%2 == 1; odd == x.RHS {
			continue // the assignment satisfies x
		}
		c := make([]Lit, k)
		for i, v := range x.Vars {
			c[i] = MkLit(v, mask&(1<<uint(i)) != 0) // false under the assignment
		}
		out = append(out, c)
	}
	return out
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars}
	g.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		g.Clauses[i] = append(Clause(nil), c...)
	}
	g.XORs = make([]XORClause, len(f.XORs))
	for i, x := range f.XORs {
		g.XORs[i] = XORClause{Vars: append([]Var(nil), x.Vars...), RHS: x.RHS}
	}
	if f.SamplingSet != nil {
		g.SamplingSet = append([]Var(nil), f.SamplingSet...)
	}
	return g
}

// SamplingVars returns the sampling set if specified, sorted and
// without repeats (the set Fingerprint hashes), else all variables.
func (f *Formula) SamplingVars() []Var {
	if f.SamplingSet != nil {
		return slices.Compact(slices.Sorted(slices.Values(f.SamplingSet)))
	}
	out := make([]Var, f.NumVars)
	for i := range out {
		out[i] = Var(i + 1)
	}
	return out
}

// Assignment maps variables to truth values. Index 0 is unused.
type Assignment []bool

// NewAssignment returns an all-false assignment for n variables.
func NewAssignment(n int) Assignment { return make(Assignment, n+1) }

// Get returns the value of v.
func (a Assignment) Get(v Var) bool { return a[v] }

// Set assigns v := val.
func (a Assignment) Set(v Var, val bool) { a[v] = val }

// Satisfies reports whether the assignment satisfies every clause and
// XOR clause of f.
func (a Assignment) Satisfies(f *Formula) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if a[l.Var()] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, x := range f.XORs {
		par := false
		for _, v := range x.Vars {
			par = par != a[v]
		}
		if par != x.RHS {
			return false
		}
	}
	return true
}

// Project returns the assignment restricted to vars, packed as a key
// suitable for map lookups (one byte per 8 vars, in vars order).
func (a Assignment) Project(vars []Var) string {
	buf := make([]byte, (len(vars)+7)/8)
	for i, v := range vars {
		if a[v] {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	return string(buf)
}

// ProjectBits returns the values of vars in order.
func (a Assignment) ProjectBits(vars []Var) []bool {
	out := make([]bool, len(vars))
	for i, v := range vars {
		out[i] = a[v]
	}
	return out
}
