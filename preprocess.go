package unigen

import (
	"unigen/internal/indsupport"
	"unigen/internal/simplify"
)

// SimplifyOptions configures CNF preprocessing.
type SimplifyOptions struct {
	// BVE enables bounded variable elimination of variables outside the
	// sampling set (satisfiability- and projection-preserving).
	BVE bool
	// NoXORRecovery disables the detection of CNF-encoded parity
	// constraints and their conversion to native XOR clauses.
	NoXORRecovery bool
}

// SimplifyStats reports what the preprocessor did.
type SimplifyStats struct {
	UnitsFixed     int
	Subsumed       int
	SelfSubsumed   int
	VarsEliminated int
	XORsRecovered  int
}

// Simplify preprocesses a formula (top-level unit propagation,
// subsumption, self-subsuming resolution, XOR recovery, and optionally
// bounded variable elimination) and returns the simplified copy. The
// input formula is not modified. Sampling over the simplified formula
// is equivalent to sampling over the original, projected on the
// sampling set.
func Simplify(f *Formula, opts SimplifyOptions) (*Formula, SimplifyStats, error) {
	res, err := simplify.Simplify(f, simplify.Options{
		BVE:           opts.BVE,
		NoXORRecovery: opts.NoXORRecovery,
	})
	if err != nil {
		return nil, SimplifyStats{}, err
	}
	return res.F, SimplifyStats{
		UnitsFixed:     res.UnitsFixed,
		Subsumed:       res.Subsumed,
		SelfSubsumed:   res.SelfSubsumed,
		VarsEliminated: res.VarsEliminated,
		XORsRecovered:  res.XORsRecovered,
	}, nil
}

// IsIndependentSupport reports whether s is an independent support of
// f: whether the values of s determine the values of every other
// variable in all witnesses. Theorem 1's guarantee is conditional on
// the sampling set having this property.
func IsIndependentSupport(f *Formula, s []Var, opts Options) (bool, error) {
	return indsupport.IsIndependent(f, s, opts.solverConfig())
}

// MinimizeIndependentSupport greedily shrinks a known independent
// support to a minimal one (no single variable can be removed).
func MinimizeIndependentSupport(f *Formula, start []Var, opts Options) ([]Var, error) {
	return indsupport.Minimize(f, start, opts.solverConfig())
}

// FindIndependentSupport computes a minimal independent support
// starting from all variables — the "algorithmic solution" the paper
// leaves out of scope (§4) and that later work supplies.
func FindIndependentSupport(f *Formula, opts Options) ([]Var, error) {
	return indsupport.Find(f, opts.solverConfig())
}
