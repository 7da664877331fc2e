// Package hashfam implements the 3-wise independent XOR hash family
// H_xor(n, m, 3) of Gomes, Sabharwal and Selman (NIPS 2007) that UniGen,
// UniWit and ApproxMC all use to partition witness spaces.
//
// A hash function h: {0,1}^n -> {0,1}^m in the family is defined by
// coefficients a[i][j] ∈ {0,1}:
//
//	h(y)[i] = a[i][0] ⊕ ⊕_{k=1..n} a[i][k]·y[k]
//
// Choosing all a[i][j] uniformly at random draws h uniformly from the
// family. Conjoining h(vars) = α to a formula adds m XOR clauses, each
// over ~n/2 variables in expectation — which is why UniGen's restriction
// of n to the (small) independent support is the paper's key scalability
// lever (§4).
//
// Rows are bit-packed (gf2.Row): column c of a row is variable Vars[c],
// so Draw fills 64 coefficients per RNG word and row lengths are
// popcounts. The packed layout flows unchanged into the solver — see
// sat.Solver.AddPackedXORRemovable for the column-map contract.
package hashfam

import (
	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/randx"
)

// Hash is a randomly drawn member of H_xor(|Vars|, m, 3) together with a
// random target cell α, represented as m packed XOR rows over Vars.
// Row bit c corresponds to Vars[c]; the row's constant a[i][0] and the
// cell bit α[i] are folded into the RHS.
type Hash struct {
	Vars []cnf.Var
	Rows []gf2.Row
}

// M returns the number of hash bits (rows).
func (h *Hash) M() int { return len(h.Rows) }

// RowLen returns the number of variables in row i (a popcount).
func (h *Hash) RowLen(i int) int { return h.Rows[i].Len() }

// TotalLen returns the exact total number of variables across all rows.
// Being an integer, it merges order-insensitively into run statistics.
func (h *Hash) TotalLen() int {
	total := 0
	for _, r := range h.Rows {
		total += r.Len()
	}
	return total
}

// AverageLen returns the mean number of variables per XOR row, the
// statistic reported in the "Avg XOR len" columns of Tables 1 and 2.
func (h *Hash) AverageLen() float64 {
	if len(h.Rows) == 0 {
		return 0
	}
	return float64(h.TotalLen()) / float64(len(h.Rows))
}

// RowVars materializes row i as a variable slice, for consumers that
// speak sparse XOR clauses (the stateless enumeration path and Apply).
// The hot incremental path installs the packed bits directly and never
// calls this.
func (h *Hash) RowVars(i int) []cnf.Var {
	r := h.Rows[i]
	out := make([]cnf.Var, 0, r.Len())
	r.ForEachSet(func(c int) { out = append(out, h.Vars[c]) })
	return out
}

// Draw samples h uniformly from H_xor(len(vars), m, 3) and α uniformly
// from {0,1}^m, returning the constraint h(vars) = α. Each variable
// appears in each row independently with probability 1/2; rows are
// generated 64 coefficient bits per RNG word.
func Draw(rng *randx.RNG, vars []cnf.Var, m int) *Hash {
	h := &Hash{Vars: vars, Rows: make([]gf2.Row, m)}
	words := gf2.Words(len(vars))
	tail := gf2.TailMask(len(vars))
	for i := 0; i < m; i++ {
		bits := make([]uint64, words)
		for w := range bits {
			bits[w] = rng.Uint64()
		}
		if words > 0 {
			bits[words-1] &= tail
		}
		// a[i][0] ⊕ α[i] folded into one random bit.
		h.Rows[i] = gf2.Row{Bits: bits, RHS: rng.Bool()}
	}
	return h
}

// Apply conjoins the hash constraint to a copy of f and returns it; f is
// not modified.
func (h *Hash) Apply(f *cnf.Formula) *cnf.Formula {
	g := f.Clone()
	for i, r := range h.Rows {
		g.AddXOR(h.RowVars(i), r.RHS)
	}
	return g
}

// Evaluate computes h(a)[i] for every row under assignment a and reports
// whether a lands in the hash's target cell (all rows satisfied). The
// assignment is packed onto the hash's column space once, then each row
// is a word-parallel parity fold.
func (h *Hash) Evaluate(a cnf.Assignment) bool {
	mask := make([]uint64, gf2.Words(len(h.Vars)))
	for c, v := range h.Vars {
		if a.Get(v) {
			mask[c>>6] |= 1 << uint(c&63)
		}
	}
	return h.Holds(mask)
}

// Holds reports whether x, a projection onto Vars packed as row bits
// (bit c stands for Vars[c], as bsat.Members packs members), satisfies
// every row of h.
func (h *Hash) Holds(x []uint64) bool {
	for _, r := range h.Rows {
		if gf2.ParityAnd(r.Bits, x) != r.RHS {
			return false
		}
	}
	return true
}
