package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/randx"
)

// This file implements the conditioned-counting story behind delta
// requests (DESIGN §13): given a prepared base Setup for F and a small
// set of assumption literals A, derive a full-fidelity Setup for F ∧ A
// without re-ingesting the formula — the enumeration and ApproxMC
// estimate run on pooled sessions carrying A as standing assumptions.
//
// Soundness rule: the conditioned setup runs the *same* algorithm, with
// the same parameters (ε' = 0.8, δ' = 0.2) and an RNG seeded from the
// conjoined formula's fingerprint, as a cold NewSetup over F ∧ A would.
// Because every BSAT cell probe is an exact bounded enumeration, its
// outcome is independent of the session's accumulated solver state, so
// the conditioned estimate — and therefore q, the hash widths, and the
// sampled witnesses' sampling-set projections — is bit-identical to the
// cold path. The pivot/κ thresholds derive from ε alone and carry over
// unchanged.

// NormalizeAssumptions sorts assumption literals by variable (negative
// phase first) and removes exact duplicates, yielding the canonical
// form delta cache keys and session assumptions use. Contradictory
// pairs (v and ¬v) are preserved: the conditioned formula is simply
// unsatisfiable, exactly as the conjoined formula with both unit
// clauses would be.
func NormalizeAssumptions(lits []cnf.Lit) []cnf.Lit {
	out := append([]cnf.Lit(nil), lits...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Var() != out[j].Var() {
			return out[i].Var() < out[j].Var()
		}
		return out[i].Neg() && !out[j].Neg()
	})
	w := 0
	for i, l := range out {
		if i == 0 || l != out[i-1] {
			out[w] = l
			w++
		}
	}
	return out[:w]
}

// Conjoin returns a private clone of the setup's formula with each
// assumption literal added as a unit clause — the formula a client
// would have posted wholesale to get the same witness distribution.
// Its fingerprint keys the delta's cache entry, so a later request
// posting the conjoined DIMACS text hits the same prepared state.
func (su *Setup) Conjoin(assumps []cnf.Lit) (*cnf.Formula, error) {
	g := su.f.Clone()
	for _, l := range assumps {
		v := int(l.Var())
		if v < 1 || v > su.f.NumVars {
			return nil, fmt.Errorf("unigen: assumption literal %d out of range (formula has %d vars)", l.DIMACS(), su.f.NumVars)
		}
		g.AddClause(l.DIMACS())
	}
	return g, nil
}

// Easy reports whether the setup holds the exact witness list (lines
// 5–7 of Algorithm 1) instead of an estimate.
func (su *Setup) Easy() bool { return su.easySet }

// Q returns the candidate-range endpoint q (line 10); zero in the easy
// case, where no hashing happens.
func (su *Setup) Q() int { return su.q }

// SessionLender lends sessions over a base setup's formula, each for
// exclusive use between Checkout and Checkin. Checkin retires every
// session doomed (nil-safe, indexed like ss) marks instead of keeping
// it.
type SessionLender interface {
	Checkout(n int) []*bsat.Session
	Checkin(ss []*bsat.Session, doomed []bool)
}

// SetupWith runs the once-per-formula phase of UniGen for F ∧ A on
// sessions over the base formula that pool lends, returning a Setup
// over the conjoined formula conj (as built by Conjoin from assumps).
// It checks out one session for the enumeration and, once the
// ApproxMC rounds start, one more for each helper token it takes (at
// most GOMAXPROCS−1, as NewSetup builds them); it installs assumps as
// standing assumptions and intr as the interrupt on each, and checks
// them all back in when it returns, marked doomed when a panic unwinds
// past it. The caller supplies the RNG, which must be
// seeded from the conjoined formula's fingerprint for the cold-path
// identity to hold.
//
// The base setup contributes κ/pivot (functions of ε only) and its
// options; the enumeration and, when the conditioned space is still
// above hiThresh, the ApproxMC estimate are recomputed under the
// assumptions by the body a cold NewSetup runs. A base in the easy
// case always yields an easy conditioned setup (R_{F∧A} ⊆ R_F).
func (su *Setup) SetupWith(pool SessionLender, conj *cnf.Formula, assumps []cnf.Lit, intr *atomic.Bool, rng *randx.RNG) (*Setup, error) {
	// The same hash-set pass a cold prepare of conj runs, from the
	// declared set, so both paths hash over the same set. The pooled
	// sessions keep blocking over the base's hash set; within F ∧ A
	// both sets determine the declared set, so cell sizes agree.
	h, err := hashSet(conj, su.s, intr)
	if err != nil {
		return nil, err
	}
	cond := &Setup{f: conj, s: su.s, h: h, kp: su.kp, opts: su.opts}

	var leased []*bsat.Session
	lease := func(n int) []*bsat.Session {
		ss := pool.Checkout(n)
		for _, sess := range ss {
			sess.SetAssumptions(assumps)
			sess.SetInterrupt(intr)
		}
		leased = append(leased, ss...)
		return ss
	}
	done := false
	// A panic that unwinds past the estimate leaves the sessions in an
	// unknown state: retire them instead of re-pooling them.
	defer func() {
		doomed := make([]bool, len(leased))
		for i := range doomed {
			doomed[i] = !done
		}
		pool.Checkin(leased, doomed)
	}()
	// Lines 4–10 under assumptions, on pooled sessions. The stored base
	// easy list cannot be filtered instead: its representatives are
	// arbitrary on non-sampling variables, so a representative
	// violating A does not mean the projected witness does. ApproxMC
	// runs with the same parameters and RNG consumption as a cold run,
	// and its cell probes are exact, so the estimate is the cold path's.
	err = cond.measure(lease, rng)
	done = true
	if err != nil {
		return nil, err
	}
	return cond, nil
}
