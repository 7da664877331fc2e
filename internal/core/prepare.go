package core

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sync/atomic"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/indsupport"
	"unigen/internal/obs"
	"unigen/internal/sat"
)

// hashSet computes the hash set of f over the declared set s (DESIGN
// §14): s minus every variable the rest of s defines within f. The
// pass runs on the canonical form cnf.Fingerprint hashes, visits s in
// order, and uses a fixed solver configuration and budget, so the
// result is a function of the fingerprint and s's order alone — never
// of the clause order a caller posted, its seed or its budgets. An
// interrupt fails it: a half-pruned set must never be cached or stored.
func hashSet(f *cnf.Formula, s []cnf.Var, intr *atomic.Bool) ([]cnf.Var, error) {
	h, err := indsupport.HashSet(cnf.Canonical(f), s, intr)
	if err != nil {
		return nil, fmt.Errorf("%w (hash-set pass)", ErrBudget)
	}
	if len(h) == 0 {
		// Every declared variable is a constant of f (or f is UNSAT), so
		// there is at most one projection and setup takes the easy case.
		// Keep s: to a BSAT session an empty set means all variables.
		return s, nil
	}
	return h, nil
}

// PrepSeed returns the canonical preparation seed for f: the leading 64
// bits of the formula's fingerprint, computed with samplingSet
// substituted for the formula's own sampling set when non-empty.
//
// Every prepared-formula path — the facade's worker-pool sampler, the
// service cache, the daemon — seeds the NewSetup RNG this way, which
// makes the Setup (easy-case witness list, ApproxMC estimate, q) a pure
// function of the formula rather than of any request's sample seed.
// That is the property the service layer's cache depends on: one cached
// Setup serves requests with arbitrary seeds, and the samples each
// request gets are bit-identical to what a cold Sampler run with the
// same seed would have produced (DESIGN §8).
func PrepSeed(f *cnf.Formula, samplingSet []cnf.Var) uint64 {
	if len(samplingSet) > 0 {
		// Shallow header copy: Fingerprint never mutates its input, so
		// the clause and XOR slices can be shared.
		f = &cnf.Formula{
			NumVars:     f.NumVars,
			Clauses:     f.Clauses,
			XORs:        f.XORs,
			SamplingSet: samplingSet,
		}
	}
	return PrepSeedFromFingerprint(cnf.Fingerprint(f))
}

// PrepSeedFromFingerprint derives the preparation seed from an already
// computed fingerprint (the service layer fingerprints once for the
// cache key and reuses the digest here).
func PrepSeedFromFingerprint(fp [32]byte) uint64 {
	return binary.LittleEndian.Uint64(fp[:8])
}

// SolverConfig returns the solver configuration the setup's sessions
// are built with (budgets, interrupt). Callers that share a Setup
// across concurrent requests start from this and swap in a private
// Interrupt before building sessions with NewSessionWith.
func (su *Setup) SolverConfig() sat.Config { return su.opts.Solver }

// ReleaseSpare drops the setup-phase spare session (the solver the
// easy-case enumeration ran on, normally adopted by the first
// NewSession call). Owners that build sessions exclusively through
// NewSessionWith — the service cache holds Setups for their whole LRU
// lifetime — call this once after NewSetup so each cached formula does
// not pin a dead solver instance. Call before sharing the Setup;
// afterwards the Setup is immutable again.
func (su *Setup) ReleaseSpare() { su.spare = nil }

// NewSessionWith builds a fresh BSAT session over the setup's formula
// and hash set with the given solver configuration — typically
// SolverConfig() with a per-request Interrupt flag and budget
// overrides. Unlike NewSession it never adopts the setup-phase spare
// session, so it is safe to call concurrently from request handlers
// sharing one cached Setup (the Setup itself is immutable; only
// sessions carry mutable solver state).
func (su *Setup) NewSessionWith(cfg sat.Config) *bsat.Session {
	return bsat.NewSession(su.f, bsat.Options{SamplingSet: su.h, Solver: cfg})
}

// WitnessCount returns the prepared count of witnesses projected onto
// the sampling set: the exact count when the setup took the easy-case
// path (lines 5–7 enumerated R_F completely; exact=true, and 0 for an
// unsatisfiable formula), otherwise line 9's ApproxMC estimate over all
// its rounds — within a factor 1.8 of |R_F↓S| with confidence 0.8.
//
// The setup stopped ApproxMC once q was settled, so the first call in
// the hashing case runs the rounds left, on a session of its own built
// with cfg: the caller's interrupt and budgets. It records them as an
// "approxmc" child span of sp (nil-safe) with rounds and bsat_calls
// counters; bsat_calls counts only the probes that called the solver
// (counter.ApproxMCResult.BSATCalls). Every probe is exact and the run
// resumes from the state the setup stopped at, so the estimate is the
// one an uninterrupted run returns. Only a successful run is kept:
// later calls return its estimate with no solver work, and after a
// failure the next call runs the rounds again. Concurrent calls run
// them once; the others wait. ran reports whether this call ran them,
// and so changed what Encode writes.
func (su *Setup) WitnessCount(cfg sat.Config, sp *obs.Span) (c *big.Int, exact, ran bool, err error) {
	if su.easySet {
		return big.NewInt(int64(len(su.easy))), true, false, nil
	}
	su.countMu.Lock()
	defer su.countMu.Unlock()
	if su.est == nil {
		csp := sp.StartSpan("approxmc")
		run := counter.ResumeApproxMC(su.amc, su.amcOptions())
		res, err := run.Finish(su.NewSessionWith(cfg))
		csp.SetInt("rounds", int64(su.amc.Left-run.Left()))
		csp.SetInt("bsat_calls", int64(res.BSATCalls))
		csp.End()
		if err != nil {
			return nil, false, false, amcErr(err)
		}
		su.est = res.Count
		ran = true
	}
	return new(big.Int).Set(su.est), false, ran, nil
}
