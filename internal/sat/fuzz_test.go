package sat

import (
	"encoding/binary"
	"fmt"
	"testing"

	"unigen/internal/cnf"
)

// FuzzSolver is the solver's differential fuzz oracle. The input bytes
// decode into a CNF+XOR formula over at most 10 variables (see
// fuzzFormula). Every engine configuration — packed or ScalarXOR rows,
// GaussJordan on or off — enumerates the full model set with blocking
// clauses, and both the first verdict and the model set must match
// BruteForceModels. The Gauss-off runs also record a proof: the
// enumeration ends in UNSAT (of the formula when it has no models, else
// of the formula plus its blocking clauses, which the trace carries as
// axioms), and that verdict must pass CheckRUPProof. RecordProof only
// logs; it does not change the search.
func FuzzSolver(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fm := fuzzFormula(data)
		if fm == nil {
			return
		}
		all := make([]cnf.Var, fm.NumVars)
		for i := range all {
			all[i] = cnf.Var(i + 1)
		}
		want := map[string]bool{}
		for _, m := range BruteForceModels(fm) {
			want[m.Project(all)] = true
		}
		for _, scalar := range []bool{false, true} {
			for _, gauss := range []bool{false, true} {
				name := fmt.Sprintf("scalar=%v gauss=%v", scalar, gauss)
				s := New(fm, Config{ScalarXOR: scalar, GaussJordan: gauss, RecordProof: !gauss})
				got := map[string]bool{}
				for {
					st := s.Solve()
					if st == Unknown {
						t.Fatalf("%s: Solve returned %v without a budget", name, st)
					}
					if len(got) == 0 && (st == Sat) != (len(want) > 0) {
						t.Fatalf("%s: verdict %v, brute force finds %d models\n%s", name, st, len(want), cnf.DIMACSString(fm))
					}
					if st == Unsat {
						break
					}
					m := s.Model()
					key := m.Project(all)
					if !want[key] || got[key] {
						t.Fatalf("%s: model %v is a non-model or a repeat\n%s", name, m, cnf.DIMACSString(fm))
					}
					got[key] = true
					block := make(cnf.Clause, len(all))
					for i, v := range all {
						block[i] = cnf.MkLit(v, m.Get(v))
					}
					s.AddClause(block)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: enumerated %d models, brute force %d\n%s", name, len(got), len(want), cnf.DIMACSString(fm))
				}
				if !gauss {
					if err := CheckRUPProof(fm, s.Proof()); err != nil {
						t.Fatalf("%s: %v\n%s", name, err, cnf.DIMACSString(fm))
					}
				}
			}
		}
	})
}

// fuzzFormula decodes fuzz input into a formula: byte 0 picks the
// variable count 1..10, then each 4-byte group is one constraint (at
// most 32). The group's first little-endian u16 selects the constraint's
// variables (bit i is variable i+1); its bit 15 makes the constraint an
// XOR whose RHS is bit 14. For a clause, bit i of the second u16 negates
// variable i+1. Variables never repeat within a constraint, so the RUP
// checker sees no duplicate literals. An empty selection is an empty
// clause or a constant XOR. Returns nil on empty input.
func fuzzFormula(data []byte) *cnf.Formula {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%10
	fm := cnf.New(n)
	for g := data[1:]; len(g) >= 4 && len(fm.Clauses)+len(fm.XORs) < 32; g = g[4:] {
		sel := binary.LittleEndian.Uint16(g)
		neg := binary.LittleEndian.Uint16(g[2:])
		if sel&0x8000 != 0 {
			var vars []cnf.Var
			for i := 0; i < n; i++ {
				if sel&(1<<i) != 0 {
					vars = append(vars, cnf.Var(i+1))
				}
			}
			fm.AddXOR(vars, sel&0x4000 != 0)
			continue
		}
		var c cnf.Clause
		for i := 0; i < n; i++ {
			if sel&(1<<i) != 0 {
				c = append(c, cnf.MkLit(cnf.Var(i+1), neg&(1<<i) != 0))
			}
		}
		fm.AddClauseLits(c)
	}
	return fm
}
