package unigen

import (
	"errors"
	"fmt"

	"unigen/internal/sat"
)

// ProveUnsat decides f with DRUP-style proof recording and, when the
// verdict is UNSAT, verifies the recorded derivation by reverse unit
// propagation before reporting it. It returns (false, nil) for
// satisfiable formulas, (true, nil) for checked-UNSAT formulas, and an
// error if the budget ran out or — which would indicate a solver bug —
// the proof fails to check.
//
// UniGen's correctness leans on UNSAT answers in two places (cell
// emptiness in the sampling loop, enumeration exhaustion in BSAT and
// ApproxMC); this entry point gives end-users an independently checked
// version of that verdict.
func ProveUnsat(f *Formula, opts Options) (bool, error) {
	cfg := opts.solverConfig()
	cfg.RecordProof = true
	s := sat.New(f, cfg)
	switch s.Solve() {
	case sat.Sat:
		return false, nil
	case sat.Unsat:
		if err := sat.CheckRUPProof(f, s.Proof()); err != nil {
			return true, fmt.Errorf("unigen: UNSAT verdict failed proof check: %w", err)
		}
		return true, nil
	default:
		return false, errors.New("unigen: solver budget exhausted")
	}
}
