// Package bsat implements the BSAT(F, N) subroutine of UniGen and
// ApproxMC: bounded model enumeration returning up to N witnesses of F
// that are distinct on the sampling set.
//
// Following the DAC'14 implementation notes (§4, "Implementation
// issues"), blocking clauses are restricted to the sampling-set
// variables: because the sampling set is an independent support, two
// witnesses agreeing on it are the same witness for counting and
// sampling purposes, and short blocking clauses keep the solver fast.
//
// Two entry points are provided. Enumerate is the stateless call: it
// builds a solver, enumerates with one Solve per witness, and throws
// the solver away; it is the reference that baselines and tests compare
// against. Session is the incremental engine behind a whole sampling or
// counting run: the base formula is loaded once, hash XOR rows and
// per-cell blocking clauses are installed as removable constraints
// (activation literals passed as assumptions), and learned clauses
// survive from one BSAT call to the next. UniGen issues thousands of
// BSAT calls per session, so not re-ingesting the formula and not
// discarding the learned-clause database on every call is the dominant
// hot-path win. Within one call a session enumerates the cell in one
// search (sat.Solver.Enumerate): after each witness the solver keeps
// its trail, adds the blocking clause and backjumps only as far as the
// clause requires, instead of re-propagating the hash rows, the
// standing assumptions and every decision from level 0.
package bsat

import (
	"errors"
	"slices"
	"sync/atomic"

	"unigen/internal/cnf"
	"unigen/internal/faultpoint"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// Result is the outcome of a bounded enumeration call.
type Result struct {
	// Witnesses holds up to N witnesses, distinct on the sampling set.
	Witnesses []cnf.Assignment
	// Exhausted is true when the enumeration proved there are no further
	// witnesses (the final solver call returned UNSAT), i.e.
	// len(Witnesses) = |R_F↓S| when len(Witnesses) < N.
	Exhausted bool
	// BudgetExceeded is true when a solver call ran out of conflict
	// budget; the reproduction's analogue of the paper's 2500-second
	// BSAT timeout. Witnesses found before exhaustion are still
	// returned.
	BudgetExceeded bool
	// Stats aggregates solver statistics for the call. For Session
	// enumerations this is the per-call delta, not the cumulative total.
	Stats tally.Vec
}

// Options configures enumeration.
type Options struct {
	// SamplingSet restricts blocking clauses (and witness distinctness)
	// to these variables. Empty means all variables of the formula.
	SamplingSet []cnf.Var
	// Hash, when non-nil, conjoins random XOR constraints
	// h(samplingVars) = α to the formula for this call only. Only read
	// by the stateless Enumerate; sessions take the hash per call.
	Hash *hashfam.Hash
	// Solver configuration (conflict budget, Gauss-Jordan, seed).
	Solver sat.Config
}

// rebuildEvery bounds selector-variable accumulation: after this many
// removable constraints the session rebuilds its solver from the base
// formula, reclaiming the per-variable arrays (and, incidentally,
// retiring any stale learned clauses reduceDB has not reclaimed yet).
const rebuildEvery = 1 << 15

// Session is an incremental BSAT engine: one solver reused across every
// Enumerate call of a sampling/counting run. Not safe for concurrent
// use. Proof recording (sat.Config.RecordProof) is turned off on
// sessions — guarded constraints and release units are not part of the
// axiom stream a checker expects. No BSAT call carries a proof: Result
// holds none, and the stateless Enumerate discards its solver. A
// checked UNSAT verdict is recorded on a plain sat.Solver instead (the
// facade's ProveUnsat).
type Session struct {
	f    *cnf.Formula
	nv   int // f.NumVars at session start; models are truncated to it
	vars []cnf.Var
	cfg  sat.Config

	s        *sat.Solver
	colMap   []int32         // hash column → solver XOR column (nil: identity)
	retired  []*sat.Selector // constraints of the previous call, released lazily
	assumps  []cnf.Lit       // scratch: activation literals for the current call
	base     []cnf.Lit       // standing assumption literals (delta requests)
	blockBuf cnf.Clause      // scratch: blocking clause, reused across witnesses
	selCount int             // selectors allocated since the last (re)build
}

// NewSession builds the solver for f once. opts.Hash is ignored; pass
// the per-call hash to Enumerate.
func NewSession(f *cnf.Formula, opts Options) *Session {
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = f.SamplingVars()
	}
	cfg := opts.Solver
	if len(cfg.PriorityVars) == 0 && len(vars) < f.NumVars {
		// Branch on the sampling set first: for Tseitin-style formulas
		// the rest of the assignment then follows by propagation, which
		// makes enumeration nearly conflict-free.
		cfg.PriorityVars = vars
	}
	cfg.RecordProof = false
	se := &Session{f: f, nv: f.NumVars, vars: vars, cfg: cfg}
	se.s = sat.New(f, cfg)
	se.s.SetModelBound(se.nv)
	se.registerColumns()
	return se
}

// registerColumns pins the sampling set into the solver's packed XOR
// column space, in hash-column order, so that drawn rows install by
// word copy (colMap == nil) unless base-formula XOR clauses claimed
// early columns first. Called after every (re)build.
func (se *Session) registerColumns() {
	se.colMap = se.s.XORColumns(se.vars)
}

// SamplingSet returns the variables blocking clauses range over.
func (se *Session) SamplingSet() []cnf.Var { return se.vars }

// SetAssumptions installs standing assumption literals: every subsequent
// Enumerate solves F ∧ lits ∧ h, i.e. the session temporarily behaves as
// a session over the conjoined formula. The literals ride each cell's
// search as plain assumptions — never installed as constraints — so they
// cost nothing to set or clear, survive rebuilds, and cannot taint the
// solver. Pass nil to clear. The slice is copied.
func (se *Session) SetAssumptions(lits []cnf.Lit) {
	se.base = append(se.base[:0], lits...)
}

// Assumptions returns the standing assumption literals (shared slice;
// callers must not mutate).
func (se *Session) Assumptions() []cnf.Lit { return se.base }

// SetInterrupt repoints the cooperative-interrupt flag for both the
// session's stall-polling and the underlying solver. Pooled sessions use
// this at check-out/check-in so each request owns its own flag.
func (se *Session) SetInterrupt(intr *atomic.Bool) {
	se.cfg.Interrupt = intr
	se.s.SetInterrupt(intr)
}

// SetBudgets replaces the conflict/propagation budgets, which bound the
// search for each witness, on the live solver and on the config used
// for future rebuilds. Zero means unlimited.
func (se *Session) SetBudgets(maxConflicts, maxPropagations int64) {
	se.cfg.MaxConflicts = maxConflicts
	se.cfg.MaxPropagations = maxPropagations
	se.s.SetBudgets(maxConflicts, maxPropagations)
}

// rebuild replaces the solver with a fresh one loaded from the base
// formula, dropping all removable constraints and learned clauses.
func (se *Session) rebuild() {
	se.s = sat.New(se.f, se.cfg)
	se.s.SetModelBound(se.nv)
	se.registerColumns()
	se.retired = se.retired[:0]
	se.selCount = 0
}

// retire releases the previous call's removable constraints — or
// rebuilds the solver outright when its level-0 state may depend on a
// removable XOR (see sat.Solver.Tainted) or when selector variables
// have accumulated past the rebuild threshold. Reports whether the
// solver was rebuilt (its stats restart from zero).
func (se *Session) retire() bool {
	if se.s.Tainted() || se.selCount >= rebuildEvery {
		se.rebuild()
		return true
	}
	for _, sel := range se.retired {
		se.s.Release(sel)
	}
	se.retired = se.retired[:0]
	// Learned clauses guarded by the released selectors are now
	// permanently satisfied; reclaim them (and compact the arena when
	// waste has built up) so propagation does not keep visiting dead
	// weight for the rest of the session.
	se.s.CollectGarbage()
	return false
}

// Interrupt returns the cooperative-interrupt flag the session's solver
// polls (nil when none is set).
func (se *Session) Interrupt() *atomic.Bool { return se.cfg.Interrupt }

// interruptRaised reports whether the session's solver interrupt flag
// is set — the predicate injected stalls poll so that chaos-test
// "hung solver" faults still honor deadlines, cancellation, and drain.
func (se *Session) interruptRaised() bool {
	return se.cfg.Interrupt != nil && se.cfg.Interrupt.Load()
}

// Enumerate returns up to n witnesses of f ∧ h, pairwise distinct on the
// sampling set. The hash rows are installed as removable XOR
// constraints and the previous call's hash and blocking clauses are
// released first, so consecutive calls reuse all accumulated solver
// state. h may be nil (enumeration of f itself).
func (se *Session) Enumerate(n int, h *hashfam.Hash) Result {
	_, res := se.enumerate(n, h, true, nil)
	return res
}

// Members is a list of witnesses of one cell, each projected onto Vars
// and packed as gf2 row bits (bit c stands for Vars[c]) in
// gf2.Words(len(Vars)) words, back to back in List. Vars must
// determine the session's sampling set within its formula and standing
// assumptions, so that two witnesses agree on Vars exactly when they
// agree on the sampling set.
type Members struct {
	Vars []cnf.Var
	List []uint64
}

// Len returns the number of members in the list.
func (m *Members) Len() int {
	if w := gf2.Words(len(m.Vars)); w > 0 {
		return len(m.List) / w
	}
	return 0
}

// Count returns min(|R_{F∧h}↓S|, n) via the session, plus the call's
// result without its witnesses: the search is Enumerate's, but no
// model is copied, since only the count is wanted.
//
// When m is non-nil its list holds known distinct members of the cell.
// Count counts them and blocks each under the cell's blocking selector
// before its search, so it enumerates only the rest, and appends
// the projection of every witness it finds to the list. With n or more
// known members it returns n without touching the solver. With none,
// its search is the one Count makes with m nil.
func (se *Session) Count(n int, h *hashfam.Hash, m *Members) (int, Result) {
	return se.enumerate(n, h, false, m)
}

// enumerate is Enumerate and Count: it finds up to n witnesses, keeps
// them in the result only when keep is set, records them in m when m
// is non-nil, and returns how many it found, m's known members
// included.
func (se *Session) enumerate(n int, h *hashfam.Hash, keep bool, m *Members) (int, Result) {
	known, w := 0, 0 // m's members and words per member
	if m != nil {
		known, w = m.Len(), gf2.Words(len(m.Vars))
	}
	if known > 0 && known >= n {
		return n, Result{}
	}
	// Chaos injection points (inert unless a test arms them). A stalled
	// call that the interrupt cuts short reports budget exhaustion — the
	// same verdict an interrupted real search produces — and a spurious
	// UNSAT reports an exhausted empty cell. Both return before touching
	// the session, so its retire/install state is exactly as if the call
	// never happened.
	if err := faultpoint.FireWait(faultpoint.SolverStall, se.interruptRaised); err != nil {
		if errors.Is(err, faultpoint.ErrInterrupted) {
			return 0, Result{BudgetExceeded: true}
		}
	}
	if faultpoint.Fire(faultpoint.SolverUnsat) != nil {
		return 0, Result{Exhausted: true}
	}
	before := se.s.Stats()
	if se.retire() {
		before = se.s.Stats() // rebuilt solver: stats restarted from zero
	}
	sels := se.retired[:0]
	acts := se.assumps[:0]
	emptyCell := false
	if h != nil {
		cols := se.colMap
		if !slices.Equal(h.Vars, se.vars) {
			// Hash drawn over a different variable space than the
			// registered sampling set (e.g. a full-support hash): build
			// this call's column mapping instead of assuming the cached
			// one.
			cols = se.s.XORColumns(h.Vars)
		}
		for i := range h.Rows {
			r := &h.Rows[i]
			if r.Empty() {
				// A drawn row with no variables: 0 = 1 proves the cell
				// empty outright (fail the cell fast, no solver call);
				// 0 = 0 constrains nothing and is skipped. The row still
				// counts in the caller's XOR stats — it was issued.
				if r.RHS {
					emptyCell = true
					break
				}
				continue
			}
			// The drawn bits flow into the solver through the column
			// map; no []cnf.Var is ever materialized.
			sel := se.s.AddPackedXORRemovable(r.Bits, r.RHS, cols)
			sels = append(sels, sel)
			acts = append(acts, sel.Lit())
		}
	}
	// Standing assumptions (delta requests) ride the cell's search after
	// the hash activation literals; order within a call is fixed,
	// so enumeration under a given (hash, assumptions) pair is
	// deterministic.
	acts = append(acts, se.base...)
	var res Result
	if emptyCell {
		res.Exhausted = true
		se.selCount += len(sels)
		se.retired = sels
		se.assumps = acts
		res.Stats = se.s.Stats().Sub(before)
		return 0, res
	}
	// One selector guards every blocking clause of this cell. It is an
	// assumption from the first search on, so the assumption prefix
	// stays fixed while the solver keeps its trail between witnesses.
	blockSel := se.s.NewClauseSelector()
	sels = append(sels, blockSel)
	acts = append(acts, blockSel.Lit())
	// Known members are blocked over m.Vars, which determines the
	// sampling set, so each clause excludes exactly the witnesses a
	// blocking clause over the sampling set would.
	for k := 0; k < known*w; k += w {
		x := m.List[k : k+w]
		se.blockBuf = se.blockBuf[:0]
		for c, v := range m.Vars {
			se.blockBuf = append(se.blockBuf, cnf.MkLit(v, x[c>>6]>>uint(c&63)&1 == 1))
		}
		se.s.AddClauseToSelector(blockSel, se.blockBuf)
	}
	found := known
	if found < n {
		st := se.s.Enumerate(blockSel, se.vars, acts, func() bool {
			found++
			if keep {
				// Model length is capped at nv+1 by SetModelBound, so
				// selector variables never leak into witnesses.
				res.Witnesses = append(res.Witnesses, se.s.Model())
			}
			if m != nil {
				k := len(m.List)
				m.List = append(m.List, make([]uint64, w)...)
				x := m.List[k:]
				for c, v := range m.Vars {
					if se.s.ModelValue(v) {
						x[c>>6] |= 1 << uint(c&63)
					}
				}
			}
			return found < n
		})
		res.Exhausted = st == sat.Unsat
		res.BudgetExceeded = st == sat.Unknown
	}
	se.selCount += len(sels)
	se.retired = sels
	se.assumps = acts
	res.Stats = se.s.Stats().Sub(before)
	return found, res
}

// Enumerate returns up to n witnesses of f (conjoined with opts.Hash if
// set), pairwise distinct on the sampling set. It is the stateless
// variant: a throwaway solver with the hash and blocking clauses
// installed permanently — no guard literals, no assumptions — and one
// Solve from level 0 per witness. Its search trajectory depends only
// on f, n and opts, so seeded baselines and tests repeat exactly; it
// is not the trajectory of a Session call.
func Enumerate(f *cnf.Formula, n int, opts Options) Result {
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = f.SamplingVars()
	}
	solverCfg := opts.Solver
	if len(solverCfg.PriorityVars) == 0 && len(vars) < f.NumVars {
		solverCfg.PriorityVars = vars
	}
	s := sat.New(f, solverCfg)
	if opts.Hash != nil {
		// Hash rows go straight into the solver rather than onto a clone
		// of the formula: BSAT is called thousands of times per sampling
		// session and the clone dominated its cost. (This stateless path
		// materializes row variables; the hot path is Session, which
		// installs the packed bits directly.)
		for i := range opts.Hash.Rows {
			if !s.AddXOR(opts.Hash.RowVars(i), opts.Hash.Rows[i].RHS) {
				return Result{Exhausted: true, Stats: s.Stats()}
			}
		}
	}
	var res Result
	var block cnf.Clause // reused across witnesses; AddClause copies
	for len(res.Witnesses) < n {
		switch s.Solve() {
		case sat.Sat:
			m := s.Model()
			res.Witnesses = append(res.Witnesses, m)
			block = block[:0]
			for _, v := range vars {
				block = append(block, cnf.MkLit(v, m.Get(v)))
			}
			if !s.AddClause(block) {
				res.Exhausted = true
				res.Stats = s.Stats()
				return res
			}
		case sat.Unsat:
			res.Exhausted = true
			res.Stats = s.Stats()
			return res
		default:
			res.BudgetExceeded = true
			res.Stats = s.Stats()
			return res
		}
	}
	res.Stats = s.Stats()
	return res
}

// Count returns min(|R_F↓S|, n): the number of sampling-set-distinct
// witnesses up to the bound n. It is the |Y| quantity tested against
// hiThresh/loThresh in Algorithm 1.
func Count(f *cnf.Formula, n int, opts Options) (int, Result) {
	res := Enumerate(f, n, opts)
	return len(res.Witnesses), res
}
