// Package sat implements a CDCL SAT solver with native XOR-clause
// propagation. It stands in for CryptoMiniSAT, which the DAC'14 UniGen
// implementation uses as its BSAT engine: the defining features UniGen
// relies on — efficient handling of long parity constraints and cheap
// incremental addition of blocking clauses — are both provided here.
//
// The solver is a conventional conflict-driven clause-learning design:
// two-watched-literal propagation, VSIDS branching with phase saving,
// first-UIP clause learning with recursive minimization, Luby restarts,
// and activity-based learned-clause deletion. XOR clauses are propagated
// natively with a two-watched-variable scheme (as in CryptoMiniSAT).
package sat

import (
	"sync/atomic"

	"unigen/internal/cnf"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted before a verdict
	Sat                   // a model was found
	Unsat                 // the formula (under assumptions) is unsatisfiable
)

func (st Status) String() string {
	switch st {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Config tunes a Solver. The zero value is a usable default.
type Config struct {
	// MaxConflicts bounds the number of conflicts per Solve call;
	// 0 means unlimited. This is the reproduction's substitute for the
	// paper's per-BSAT-call wall-clock timeout (2500 s in §5).
	MaxConflicts int64
	// MaxPropagations additionally bounds per-call propagation work
	// (0 = unlimited). Long XOR rows make propagation, not conflicts,
	// the dominant cost on UniWit-style full-support instances; this is
	// the budget that makes those calls "time out" deterministically.
	MaxPropagations int64
	// Seed is read by nothing: the solver draws no random numbers, so
	// search depends only on the formula and the call sequence. It
	// stays because unibench/batch.go sets it (ROADMAP, benchmark
	// upkeep).
	Seed uint64
	// PriorityVars are branched on before all other variables (VSIDS
	// order within each class), from a new solver's first descent on.
	// BSAT sets this to the sampling set: for Tseitin-encoded formulas
	// every non-sampling variable is functionally determined by the
	// sampling set, so deciding the sampling set first makes witness
	// enumeration nearly conflict-free. Enumerate's models are distinct
	// on these variables.
	PriorityVars []cnf.Var
	// Interrupt, when non-nil, is polled during search (alongside the
	// conflict-budget check and periodically between decisions). Once it
	// reads true, Solve returns Unknown promptly, exactly as if the
	// conflict budget had been exhausted; the solver state stays valid
	// for further calls. Several solvers may share one flag — this is
	// how context cancellation reaches every worker of a parallel
	// sampling pool.
	Interrupt *atomic.Bool
	// RecordProof keeps a DRUP-style trace of learned clauses and
	// mid-search axioms, verifiable with CheckRUPProof.
	RecordProof bool
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// watcher pairs a watching clause with a blocker literal: if the
// blocker is already true the clause is satisfied and need not be
// inspected. cr addresses the clause in the arena; crefBin tags an
// inlined binary clause, whose other literal IS the blocker — binary
// propagation then never touches the arena. Both fields are packed to
// 32 bits so a watch list holds 8 watchers per cache line.
type watcher struct {
	cr  CRef
	blk uint32 // cnf.Lit
}

func (w watcher) blocker() cnf.Lit { return cnf.Lit(w.blk) }

// Reason tags recorded in reason.tag.
const (
	reasonNone   uint8 = iota // decision or top-level unit
	reasonClause              // ref is the CRef of an arena clause
	reasonBinary              // ref is the other (false) literal of a binary clause
	reasonXOR                 // ref is an index into Solver.xors
)

// reason records why a variable was assigned. The payload meaning
// depends on the tag; clause reasons are rewritten by arena compaction
// (the trail is one of the CRef holders GC relocates).
type reason struct {
	ref uint32
	tag uint8
}

func (r reason) isNone() bool { return r.tag == reasonNone }

// conflict is propagate's result: an arena clause (cr), a materialized
// literal set (lits, for XOR and inlined-binary conflicts, living in a
// solver scratch buffer), or neither (no conflict).
type conflict struct {
	cr   CRef
	lits []cnf.Lit
}

func noConflict() conflict { return conflict{cr: crefUndef} }

func (c conflict) none() bool { return c.cr == crefUndef && c.lits == nil }

// xorClause is a parity constraint stored as dense GF(2) coefficient
// words over the solver's XOR column space; w holds the two watched
// columns. sel is nonzero for removable XOR rows: the guard variable.
// The row holds while sel is false and constrains nothing once sel is
// true; AddPackedXORToSelector adds sel's column to bits only so that
// the row is watched on it. Variables assigned at
// level 0 before install stay in the row (the assignment masks fold
// them into the parity). bits covers only the row's span: word k of
// bits is global mask word off+k, so a short row over a wide column
// space (a base-formula parity among thousands of hash-irrelevant
// columns) costs its own width, not the matrix width.
type xorClause struct {
	bits []uint64 // coefficient words, window [off, off+len)
	off  int32    // global word offset of bits[0]
	rhs  bool
	w    [2]int // watched columns
	sel  cnf.Var
}
