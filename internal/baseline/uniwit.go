// Package baseline implements the comparison generators of the DAC'14
// evaluation: UniWit (Chakraborty, Meel, Vardi; CAV 2013) and US, the
// idealized uniform sampler built from an exact model counter that
// Figure 1 uses as its reference.
package baseline

import (
	"errors"
	"fmt"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// ErrFailed is returned when a baseline generator reports failure (⊥)
// for one sampling round.
var ErrFailed = errors.New("baseline: sampling round failed (⊥)")

// UniWitOptions configures the UniWit baseline.
type UniWitOptions struct {
	// Solver configures BSAT calls.
	Solver sat.Config
}

// UniWit is a reimplementation of the CAV 2013 near-uniform generator,
// faithful in the three properties the DAC'14 comparison rests on:
//
//  1. XOR constraints range over the FULL support X of the formula
//     (average length |X|/2), not an independent support — the paper's
//     §4 explains why this throttles scalability;
//  2. every sample searches the hash-count m sequentially from 1, from
//     scratch — there is no once-per-formula amortization ("generating
//     every witness in UniWit requires sequentially searching over all
//     values afresh", §5) — with leap-frogging disabled as in §5;
//  3. a cell is accepted with probability |Y|/pivot, yielding the
//     near-uniformity guarantee with success probability ≥ 0.125 rather
//     than UniGen's ≥ 0.62.
//
// Exact CAV'13 constants not pinned by the DAC'14 text are documented
// here rather than guessed: pivot is 20.
type UniWit struct {
	f     *cnf.Formula
	opts  UniWitOptions
	stats core.Stats
}

// NewUniWit builds the baseline sampler. Unlike UniGen there is no
// setup phase to amortize — that asymmetry is the point of Table 1.
func NewUniWit(f *cnf.Formula, opts UniWitOptions) *UniWit {
	return &UniWit{f: f, opts: opts}
}

// Stats returns a snapshot of the counters: the Samples, Failures,
// BSATCalls, XORRows and XORLenSum rows of the UniGen columns.
func (u *UniWit) Stats() core.Stats { return u.stats }

// Sample draws one witness or fails with ErrFailed.
func (u *UniWit) Sample(rng *randx.RNG) (cnf.Assignment, error) {
	// The cell-size bound, the CAV'13 constant for the near-uniformity
	// guarantee: 20 keeps the documented ≥ 0.125 success probability.
	const pivot = 20
	fullSupport := make([]cnf.Var, u.f.NumVars)
	for i := range fullSupport {
		fullSupport[i] = cnf.Var(i + 1)
	}
	// Base case: few enough witnesses to enumerate outright.
	res := bsat.Enumerate(u.f, pivot+1, bsat.Options{SamplingSet: fullSupport, Solver: u.opts.Solver})
	u.stats[tally.BSATCalls]++
	if res.BudgetExceeded {
		return nil, fmt.Errorf("uniwit: %w", errBudget)
	}
	if len(res.Witnesses) <= pivot {
		if len(res.Witnesses) == 0 {
			return nil, errors.New("uniwit: formula is unsatisfiable")
		}
		u.stats[tally.Samples]++
		return res.Witnesses[rng.Intn(len(res.Witnesses))], nil
	}
	// Sequential search over the number of XOR constraints, afresh for
	// every sample.
	for i := 1; i < len(fullSupport); i++ {
		h := hashfam.Draw(rng, fullSupport, i)
		u.stats[tally.XORRows] += int64(h.M())
		u.stats[tally.XORLenSum] += int64(h.TotalLen())
		res := bsat.Enumerate(u.f, pivot+1, bsat.Options{
			SamplingSet: fullSupport,
			Hash:        h,
			Solver:      u.opts.Solver,
		})
		u.stats[tally.BSATCalls]++
		if res.BudgetExceeded {
			return nil, fmt.Errorf("uniwit: %w", errBudget)
		}
		n := len(res.Witnesses)
		if n >= 1 && n <= pivot {
			// Accept with probability |Y|/pivot: the rejection step that
			// buys the near-uniform lower bound.
			if rng.Float64() < float64(n)/float64(pivot) {
				u.stats[tally.Samples]++
				return res.Witnesses[rng.Intn(n)], nil
			}
			u.stats[tally.Failures]++
			return nil, ErrFailed
		}
		if n == 0 {
			u.stats[tally.Failures]++
			return nil, ErrFailed
		}
	}
	u.stats[tally.Failures]++
	return nil, ErrFailed
}

var errBudget = errors.New("BSAT conflict budget exhausted")

// ErrBudget reports whether err is a budget-exhaustion error from a
// baseline sampler.
func ErrBudget(err error) bool { return errors.Is(err, errBudget) }
