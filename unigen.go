// Package unigen is a from-scratch Go implementation of UniGen, the
// almost-uniform SAT-witness generator of Chakraborty, Meel and Vardi
// ("Balancing Scalability and Uniformity in SAT Witness Generator",
// DAC 2014), together with every substrate the paper builds on: a CDCL
// SAT solver with native XOR-clause propagation, the H_xor(n,m,3) hash
// family, bounded model enumeration (BSAT), exact and approximate model
// counting (sharpSAT-style #SAT and ApproxMC), the UniWit baseline, and
// circuit/benchmark generators reproducing the paper's evaluation.
//
// # Quick start
//
//	f, _ := unigen.ParseDIMACSString(dimacs) // "c ind ..." lines set the sampling set
//	s, _ := unigen.NewSampler(f, unigen.Options{Epsilon: 6, Seed: 1})
//	w, _ := s.Sample()
//	fmt.Println(w.Bits(f.SamplingVars()))
//
// (Options fields beyond Epsilon and Seed — SamplingSet, MaxConflicts,
// MaxPropagations, Workers — are optional;
// f.SamplingVars() returns the declared sampling set, sorted, falling
// back to all variables.)
//
// Given a tolerance ε > 1.71 and a sampling set S that is an
// independent support of F, every witness y of F is returned with
// probability within a (1+ε) factor of uniform (Theorem 1 of the
// paper), and each call succeeds with probability at least 0.62.
//
// # Parallel sampling and seed splitting
//
// After the one-time setup, every sampling round is independent — the
// loop is embarrassingly parallel. Options.Workers sets how many solver
// sessions SampleN fans rounds out over. Reproducibility is preserved
// by splitting the seed per round rather than per worker: round i
// always runs on the RNG stream randx.Stream(Seed, i) (the i-th output
// of a SplitMix64 generator seeded with Seed, finalized into a fresh
// generator state), and rounds are consumed in index order. The
// multiset of samples for a given Seed is therefore identical for any
// worker count; only wall-clock time changes.
//
// # Sampling as a service
//
// Service (NewService) wraps the engine in a prepared-formula cache:
// requests for any mix of formulas run concurrently, the expensive
// once-per-formula setup runs at most once per distinct formula
// (single-flight, keyed by the canonical fingerprint — see
// FormulaFingerprint), and samples for a fixed (formula, seed, n) are
// bit-identical to Sampler.SampleN whether served cold, from cache, or
// over the cmd/unigend HTTP daemon (Service.Handler exposes the same
// routes).
package unigen

import (
	"context"
	"errors"
	"io"
	"math/big"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/counter"
	"unigen/internal/parallel"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// Var is a propositional variable (1-based, DIMACS convention).
type Var = cnf.Var

// Formula is a CNF formula, optionally extended with native XOR clauses
// and a sampling set (intended to be an independent support).
type Formula = cnf.Formula

// NewFormula returns an empty formula over n variables. Add clauses
// with AddClause (signed DIMACS literals) and parity constraints with
// AddXOR.
func NewFormula(n int) *Formula { return cnf.New(n) }

// ParseDIMACS reads a DIMACS CNF file, honoring "c ind ... 0" sampling
// set lines and CryptoMiniSAT-style "x..." XOR clause lines.
func ParseDIMACS(r io.Reader) (*Formula, error) { return cnf.ParseDIMACS(r) }

// ParseDIMACSString parses DIMACS text.
func ParseDIMACSString(s string) (*Formula, error) { return cnf.ParseDIMACSString(s) }

// WriteDIMACS serializes a formula, including sampling set and XOR
// clauses.
func WriteDIMACS(w io.Writer, f *Formula) error { return cnf.WriteDIMACS(w, f) }

// Witness is a satisfying assignment.
type Witness struct {
	a cnf.Assignment
}

// Get returns the value of variable v.
func (w Witness) Get(v Var) bool { return w.a.Get(v) }

// Bits returns the values of the given variables in order.
func (w Witness) Bits(vars []Var) []bool { return w.a.ProjectBits(vars) }

// Satisfies reports whether the witness satisfies f.
func (w Witness) Satisfies(f *Formula) bool { return w.a.Satisfies(f) }

// ErrUnsat is returned by Sample when the formula has no witnesses.
var ErrUnsat = core.ErrUnsat

// Options configures a Sampler.
type Options struct {
	// Epsilon is the uniformity tolerance; must exceed 1.71
	// (the paper's experiments use 6).
	Epsilon float64
	// SamplingSet overrides the formula's sampling set. It should be an
	// independent support of the formula; the guarantee of Theorem 1 is
	// conditional on that. It need not be a minimal one: setup drops
	// every sampling variable the others define before hashing (see
	// Sampler.HashSet), so a superset of an independent support hashes
	// about as cheaply as a minimal one. Witnesses are still projected
	// on the whole set.
	SamplingSet []Var
	// Seed makes the sampler deterministic.
	Seed uint64
	// MaxConflicts bounds each internal SAT call (0 = unlimited),
	// standing in for the paper's per-call wall-clock timeout.
	MaxConflicts int64
	// MaxPropagations additionally bounds per-call propagation work
	// (0 = unlimited); useful on instances with very long XOR rows.
	MaxPropagations int64
	// Workers is the number of solver sessions sampling rounds are
	// fanned out over (0 means 1). Rounds draw from per-round seed
	// streams (see the package comment on determinism), so the sample
	// multiset depends only on Seed, not on Workers: Workers: 1 and
	// Workers: 8 return the same samples.
	Workers int
}

// solverConfig maps the option knobs onto the internal solver config.
func (o Options) solverConfig() sat.Config {
	return sat.Config{
		MaxConflicts:    o.MaxConflicts,
		MaxPropagations: o.MaxPropagations,
	}
}

// Sampler draws almost-uniform witnesses of one formula. The expensive
// setup (an approximate model count) runs once in NewSampler; each
// Sample call is cheap — the amortization that distinguishes UniGen
// from its predecessors.
type Sampler struct {
	eng *parallel.Engine
}

// NewSampler validates options and runs UniGen's setup phase.
func NewSampler(f *Formula, opts Options) (*Sampler, error) {
	eng, err := parallel.NewEngine(f, parallel.Options{
		Workers:    max(opts.Workers, 1),
		MasterSeed: opts.Seed,
		Core: core.Options{
			Epsilon:     opts.Epsilon,
			SamplingSet: opts.SamplingSet,
			Solver:      opts.solverConfig(),
		},
	})
	if err != nil {
		return nil, err
	}
	return &Sampler{eng: eng}, nil
}

// Sample returns one almost-uniform witness, retrying ⊥ rounds, or an
// error for unsatisfiable formulas (ErrUnsat) and budget exhaustion.
func (s *Sampler) Sample() (Witness, error) {
	ws, err := s.eng.SampleN(context.Background(), 1)
	if err != nil {
		return Witness{}, err
	}
	return Witness{a: ws[0]}, nil
}

// SampleN returns n witnesses, transparently retrying ⊥ rounds. With
// Options.Workers > 1 the rounds are drawn by the worker pool.
func (s *Sampler) SampleN(n int) ([]Witness, error) {
	return s.SampleNContext(context.Background(), n)
}

// SampleNContext is SampleN with cancellation: when ctx is cancelled,
// in-flight SAT search is interrupted promptly and the error is
// ctx.Err(). Witnesses completed before cancellation (or before any
// other hard error) are returned alongside the error — check the error
// before assuming the slice holds n entries.
func (s *Sampler) SampleNContext(ctx context.Context, n int) ([]Witness, error) {
	ws, err := s.eng.SampleN(ctx, n)
	out := make([]Witness, len(ws))
	for i, w := range ws {
		out[i] = Witness{a: w}
	}
	return out, err
}

// HashSet returns the variables sampling hashes over: the sampling set
// minus every variable the remaining ones define within the formula,
// in sampling-set order. The two sets' projections of the witnesses
// are in bijection, so hashing over the smaller one changes the cost
// of each round, not the distribution.
func (s *Sampler) HashSet() []Var { return s.eng.Setup().HashSet() }

// Stats reports observable sampler behaviour. BSATCalls and the solver
// counters (Conflicts through ArenaBytes) cover the setup's easy-case
// enumeration as well as the sampling rounds; none counts the setup's
// ApproxMC calls or its hash-set pass.
type Stats struct {
	Samples      int64   // successful samples
	Failures     int64   // ⊥ rounds
	Rounds       int64   // sampling rounds attempted (Samples + Failures)
	BSATCalls    int64   // bounded-enumeration solver calls issued
	XORRows      int64   // hash XOR rows issued
	Conflicts    int64   // solver conflicts
	Propagations int64   // solver propagations
	Learned      int64   // clauses learned
	Removed      int64   // learned clauses reclaimed (reduceDB + session GC)
	Compactions  int64   // clause-arena GC compactions across the run's sessions
	ArenaBytes   int64   // largest clause-arena footprint any session reported
	SuccProb     float64 // Samples / (Samples+Failures)
	AvgXORLen    float64 // mean XOR-clause length issued for hashing
	EasyCase     bool    // formula had few enough witnesses to enumerate
}

// Stats returns a snapshot: the merged view over the setup phase and
// every consumed round.
func (s *Sampler) Stats() Stats {
	st := s.eng.Stats()
	return Stats{
		Samples:      st[tally.Samples],
		Failures:     st[tally.Failures],
		Rounds:       st.Rounds(),
		BSATCalls:    st[tally.BSATCalls],
		XORRows:      st[tally.XORRows],
		Conflicts:    st[tally.Conflicts],
		Propagations: st[tally.Propagations],
		Learned:      st[tally.Learned],
		Removed:      st[tally.Removed],
		Compactions:  st[tally.Compactions],
		ArenaBytes:   st[tally.ArenaBytes],
		SuccProb:     st.SuccessProb(),
		AvgXORLen:    st.AvgXORLen(),
		EasyCase:     st.EasyCase(),
	}
}

// Solve checks satisfiability of f with the built-in CDCL+XOR solver
// and returns a witness when satisfiable.
func Solve(f *Formula, opts Options) (Witness, bool, error) {
	s := sat.New(f, opts.solverConfig())
	switch s.Solve() {
	case sat.Sat:
		return Witness{a: s.Model()}, true, nil
	case sat.Unsat:
		return Witness{}, false, nil
	default:
		return Witness{}, false, errors.New("unigen: solver budget exhausted")
	}
}

// ApproxCount estimates the number of witnesses of f projected onto its
// sampling set, within a (1+epsilon) factor with confidence 1-delta
// (ApproxMC2: Chakraborty, Meel and Vardi, IJCAI 2016). Fewer than
// ⌈1 + 9.84·(1 + ε/(1+ε))·(1 + 1/ε)²⌉ witnesses (73 at ε = 0.8) are
// counted exactly.
func ApproxCount(f *Formula, epsilon, delta float64, opts Options) (*big.Int, error) {
	rng := randx.New(opts.Seed ^ 0xa99c0c13)
	res, err := counter.ApproxMC(f, rng, counter.ApproxMCOptions{
		Epsilon:     epsilon,
		Delta:       delta,
		SamplingSet: opts.SamplingSet,
		Solver:      opts.solverConfig(),
	})
	if err != nil {
		return nil, err
	}
	return res.Count, nil
}

// ExactCount counts witnesses of f over all variables with the
// component-caching #SAT engine. XOR clauses wider than 12 variables
// are rejected (expand them or use ApproxCount).
func ExactCount(f *Formula) (*big.Int, error) {
	return counter.ExactSharpSAT(f)
}

// ExactProjectedCount counts witnesses projected on the sampling set by
// enumeration, up to limit (error beyond it).
func ExactProjectedCount(f *Formula, limit int) (*big.Int, error) {
	return counter.ExactProjected(f, limit, sat.Config{})
}

// MinEpsilon is the smallest admissible tolerance (exclusive bound).
const MinEpsilon = core.MinEpsilon

// Version identifies the library release.
const Version = "1.0.0"
