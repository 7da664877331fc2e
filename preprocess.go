package unigen

import "unigen/internal/indsupport"

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
