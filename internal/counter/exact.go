// Package counter provides the model-counting substrates UniGen depends
// on: an exact #SAT engine (DPLL with connected-component decomposition
// and component caching, a la sharpSAT), an exact projected counter
// based on bounded enumeration, and the ApproxMC approximate model
// counter (Chakraborty, Meel, Vardi; CP 2013) invoked at line 9 of
// UniGen's Algorithm 1.
package counter

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"unigen/internal/cnf"
)

// maxXORExpand bounds the width of XOR clauses that ExactSharpSAT will
// expand into CNF (an XOR over k variables expands to 2^(k-1) clauses).
const maxXORExpand = 12

// ExactSharpSAT counts the satisfying assignments of f over all NumVars
// variables using DPLL with component decomposition and caching. XOR
// clauses are expanded into CNF; it returns an error if an XOR is wider
// than maxXORExpand variables.
func ExactSharpSAT(f *cnf.Formula) (*big.Int, error) {
	cls := make([][]cnf.Lit, 0, len(f.Clauses))
	for _, c := range f.Clauses {
		cls = append(cls, append([]cnf.Lit(nil), c...))
	}
	for _, x := range f.XORs {
		if len(x.Vars) > maxXORExpand {
			return nil, fmt.Errorf("counter: XOR clause with %d vars exceeds expansion limit %d",
				len(x.Vars), maxXORExpand)
		}
		cls = append(cls, cnf.ExpandXOR(x)...)
	}
	e := &sharpEngine{cache: map[string]*big.Int{}}
	cnt := e.countOver(cls, f.NumVars)
	return cnt, nil
}

type sharpEngine struct {
	cache map[string]*big.Int
}

// countOver counts assignments over exactly nVars variables (1..nVars)
// that satisfy cls. Variables not mentioned in cls contribute a factor
// of 2 each.
func (e *sharpEngine) countOver(cls [][]cnf.Lit, nVars int) *big.Int {
	reduced, fixed, conflict := unitPropagate(cls)
	if conflict {
		return big.NewInt(0)
	}
	involved := map[cnf.Var]struct{}{}
	for _, c := range reduced {
		for _, l := range c {
			involved[l.Var()] = struct{}{}
		}
	}
	free := nVars - len(fixed) - len(involved)
	result := new(big.Int).Lsh(big.NewInt(1), uint(free))
	if len(reduced) == 0 {
		return result
	}
	for _, comp := range components(reduced) {
		result.Mul(result, e.countComponent(comp))
	}
	return result
}

// countComponent counts assignments over vars(comp) satisfying comp,
// with caching on the canonical component encoding.
func (e *sharpEngine) countComponent(comp [][]cnf.Lit) *big.Int {
	key := componentKey(comp)
	if c, ok := e.cache[key]; ok {
		return c
	}
	v := pickVar(comp)
	pos := e.countBranch(comp, cnf.MkLit(v, false))
	neg := e.countBranch(comp, cnf.MkLit(v, true))
	total := new(big.Int).Add(pos, neg)
	e.cache[key] = total
	return total
}

// countBranch conditions comp on literal l being true and counts the
// remainder over the same variable set (minus v).
func (e *sharpEngine) countBranch(comp [][]cnf.Lit, l cnf.Lit) *big.Int {
	vars := map[cnf.Var]struct{}{}
	for _, c := range comp {
		for _, q := range c {
			vars[q.Var()] = struct{}{}
		}
	}
	cond, conflict := condition(comp, l)
	if conflict {
		return big.NewInt(0)
	}
	reduced, fixed, conflict := unitPropagate(cond)
	if conflict {
		return big.NewInt(0)
	}
	involved := map[cnf.Var]struct{}{}
	for _, c := range reduced {
		for _, q := range c {
			involved[q.Var()] = struct{}{}
		}
	}
	// Free vars: in the component but now fixed by nothing and absent.
	free := len(vars) - 1 - len(fixed) - len(involved) // -1 for v itself
	result := new(big.Int).Lsh(big.NewInt(1), uint(free))
	for _, sub := range components(reduced) {
		result.Mul(result, e.countComponent(sub))
	}
	return result
}

// condition removes satisfied clauses and false literals given l=true.
func condition(cls [][]cnf.Lit, l cnf.Lit) ([][]cnf.Lit, bool) {
	var out [][]cnf.Lit
	for _, c := range cls {
		sat := false
		var nc []cnf.Lit
		for _, q := range c {
			if q == l {
				sat = true
				break
			}
			if q == l.Not() {
				continue
			}
			nc = append(nc, q)
		}
		if sat {
			continue
		}
		if len(nc) == 0 {
			return nil, true
		}
		out = append(out, nc)
	}
	return out, false
}

// unitPropagate applies unit propagation until fixpoint, returning the
// reduced clause set, the set of fixed variables, and a conflict flag.
func unitPropagate(cls [][]cnf.Lit) (out [][]cnf.Lit, fixed map[cnf.Var]struct{}, conflict bool) {
	fixed = map[cnf.Var]struct{}{}
	cur := cls
	for {
		var unit cnf.Lit
		for _, c := range cur {
			if len(c) == 1 {
				unit = c[0]
				break
			}
		}
		if unit == 0 {
			return cur, fixed, false
		}
		next, confl := condition(cur, unit)
		if confl {
			return nil, fixed, true
		}
		fixed[unit.Var()] = struct{}{}
		cur = next
	}
}

// components partitions clauses into connected components (clauses
// sharing a variable are connected).
func components(cls [][]cnf.Lit) [][][]cnf.Lit {
	parent := map[cnf.Var]cnf.Var{}
	var find func(v cnf.Var) cnf.Var
	find = func(v cnf.Var) cnf.Var {
		if parent[v] == v {
			return v
		}
		r := find(parent[v])
		parent[v] = r
		return r
	}
	union := func(a, b cnf.Var) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range cls {
		for _, l := range c {
			if _, ok := parent[l.Var()]; !ok {
				parent[l.Var()] = l.Var()
			}
		}
		for i := 1; i < len(c); i++ {
			union(c[0].Var(), c[i].Var())
		}
	}
	groups := map[cnf.Var][][]cnf.Lit{}
	for _, c := range cls {
		r := find(c[0].Var())
		groups[r] = append(groups[r], c)
	}
	out := make([][][]cnf.Lit, 0, len(groups))
	var roots []cnf.Var
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// pickVar selects the most frequently occurring variable to branch on.
func pickVar(cls [][]cnf.Lit) cnf.Var {
	freq := map[cnf.Var]int{}
	for _, c := range cls {
		for _, l := range c {
			freq[l.Var()]++
		}
	}
	var best cnf.Var
	bestN := -1
	for v, n := range freq {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// componentKey canonically encodes a clause set for the cache.
func componentKey(cls [][]cnf.Lit) string {
	strs := make([]string, len(cls))
	for i, c := range cls {
		lits := make([]int, len(c))
		for j, l := range c {
			lits[j] = l.DIMACS()
		}
		sort.Ints(lits)
		var sb strings.Builder
		for _, x := range lits {
			fmt.Fprintf(&sb, "%d,", x)
		}
		strs[i] = sb.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, ";")
}
