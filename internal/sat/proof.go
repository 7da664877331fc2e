package sat

import (
	"errors"
	"fmt"

	"unigen/internal/cnf"
)

// Proof logging (DRUP-style, additions only). When Config.RecordProof
// is set, the solver records every clause it learns as a lemma and
// every clause added through AddClause as an axiom. For an UNSAT
// verdict the trace ends with the empty lemma, and CheckRUPProof can
// verify the whole derivation by reverse unit propagation against the
// original formula — giving end-users independent evidence that the
// solver's UNSAT answers (which UniGen's cell-emptiness and ApproxMC's
// exhaustion checks rely on) are sound.
//
// XOR clauses are handled by observing that every reason clause the
// XOR propagator materializes is one of the 2^(k-1) CNF expansion
// clauses of its XOR, so RUP over the expanded CNF covers XOR-derived
// lemmas.

// ProofStepKind distinguishes trace entries.
type ProofStepKind int8

// Proof step kinds.
const (
	StepLemma ProofStepKind = iota // learned clause; must be RUP
	StepAxiom                      // clause added by the user mid-search
)

// ProofStep is one entry of a proof trace.
type ProofStep struct {
	Kind ProofStepKind
	Lits []cnf.Lit // empty lemma = UNSAT terminal
}

// Proof returns the recorded trace (nil unless Config.RecordProof).
func (s *Solver) Proof() []ProofStep {
	out := make([]ProofStep, len(s.proof))
	copy(out, s.proof)
	return out
}

func (s *Solver) logLemma(lits []cnf.Lit) {
	if !s.cfg.RecordProof {
		return
	}
	s.proof = append(s.proof, ProofStep{Kind: StepLemma, Lits: append([]cnf.Lit(nil), lits...)})
}

func (s *Solver) logAxiom(lits []cnf.Lit) {
	if !s.cfg.RecordProof {
		return
	}
	s.proof = append(s.proof, ProofStep{Kind: StepAxiom, Lits: append([]cnf.Lit(nil), lits...)})
}

// CheckRUPProof verifies a proof trace as a refutation of formula f:
// every lemma must be derivable by reverse unit propagation (RUP) from
// the original clauses, the CNF expansions of the XOR clauses, the
// axioms added so far, and the previously verified lemmas, and one of
// them must be the empty clause. It returns an error at the first
// failing step, or when no step derives the empty clause — a trace of
// sound lemmas alone proves nothing about satisfiability.
func CheckRUPProof(f *cnf.Formula, steps []ProofStep) error {
	db := make([][]cnf.Lit, 0, len(f.Clauses)+len(steps))
	for _, c := range f.Clauses {
		db = append(db, append([]cnf.Lit(nil), c...))
	}
	for _, x := range f.XORs {
		if len(x.Vars) > 20 {
			return fmt.Errorf("sat: XOR clause with %d vars too wide to expand for checking", len(x.Vars))
		}
		db = append(db, expandXORForCheck(x)...)
	}
	n := f.NumVars
	for i, st := range steps {
		for _, l := range st.Lits {
			if int(l.Var()) > n {
				n = int(l.Var())
			}
		}
		if st.Kind == StepAxiom {
			db = append(db, st.Lits)
			continue
		}
		if !rupDerivable(db, n, st.Lits) {
			return fmt.Errorf("sat: proof step %d (lemma %v) is not RUP", i, st.Lits)
		}
		if len(st.Lits) == 0 {
			return nil // refuted: the empty clause makes any later lemma RUP
		}
		db = append(db, st.Lits)
	}
	return errors.New("sat: proof never derives the empty clause")
}

// rupDerivable checks that asserting the negation of lemma and unit
// propagating over db yields a conflict.
func rupDerivable(db [][]cnf.Lit, numVars int, lemma []cnf.Lit) bool {
	val := make([]lbool, numVars+1)
	var queue []cnf.Lit
	assign := func(l cnf.Lit) bool {
		v := l.Var()
		want := boolToLbool(!l.Neg())
		if val[v] != lUndef {
			return val[v] == want
		}
		val[v] = want
		queue = append(queue, l)
		return true
	}
	for _, l := range lemma {
		if !assign(l.Not()) {
			return true // negated lemma is itself contradictory
		}
	}
	// Naive fixpoint propagation (checker favors simplicity over speed).
	for {
		progressed := false
		for _, c := range db {
			unassigned := cnf.Lit(0)
			nUn := 0
			sat := false
			for _, l := range c {
				switch {
				case val[l.Var()] == lUndef:
					nUn++
					unassigned = l
				case (val[l.Var()] == lTrue) != l.Neg():
					sat = true
				}
				if sat || nUn > 1 {
					break
				}
			}
			if sat || nUn > 1 {
				continue
			}
			if nUn == 0 {
				return true // conflict reached
			}
			if !assign(unassigned) {
				return true
			}
			progressed = true
		}
		if !progressed {
			return false
		}
	}
}

// expandXORForCheck converts an XOR clause into its CNF expansion.
func expandXORForCheck(x cnf.XORClause) [][]cnf.Lit {
	k := len(x.Vars)
	var out [][]cnf.Lit
	for m := 0; m < 1<<uint(k); m++ {
		par := false
		for i := 0; i < k; i++ {
			if m&(1<<uint(i)) != 0 {
				par = !par
			}
		}
		if par == x.RHS {
			continue
		}
		c := make([]cnf.Lit, k)
		for i, v := range x.Vars {
			c[i] = cnf.MkLit(v, m&(1<<uint(i)) != 0)
		}
		out = append(out, c)
	}
	return out
}
