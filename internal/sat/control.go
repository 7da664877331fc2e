package sat

import "sync/atomic"

// SetBudgets replaces the per-Solve conflict and propagation budgets.
// Solve and Enumerate read the limits fresh at every call (relative to
// the solver's cumulative stats), so they can change between calls
// without rebuilding the solver. Zero means unlimited.
func (s *Solver) SetBudgets(maxConflicts, maxPropagations int64) {
	s.cfg.MaxConflicts = maxConflicts
	s.cfg.MaxPropagations = maxPropagations
}

// SetInterrupt replaces the cooperative-interrupt flag polled during
// search. Passing nil detaches the solver from any flag. Like budgets,
// the flag is consulted fresh at every Solve call, so ownership of a
// pooled solver can move between requests safely.
func (s *Solver) SetInterrupt(intr *atomic.Bool) {
	s.cfg.Interrupt = intr
}
