package sat

import (
	mbits "math/bits"
	"slices"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/tally"
)

// Solver is a CDCL SAT solver over CNF + XOR clauses. It is not safe for
// concurrent use. Clauses may be added between Solve calls (the basis of
// blocking-clause enumeration in BSAT).
type Solver struct {
	cfg Config

	numVars int
	ok      bool // false once a top-level conflict is found

	ca      arena  // flat clause store; see arena.go
	clauses []CRef // problem clauses (binary ones live only in watchers)
	learnts []CRef // learned clauses of size ≥ 3, or 2 with a guard
	guarded []CRef // clauses added under a selector, blocking clauses included
	watches [][]watcher

	xors   []xorClause
	occXor [][]int32 // per var: indices of xors currently watching it

	// Packed XOR engine state: a dense GF(2) column space owned by the
	// solver. Columns are assigned to variables on first appearance in
	// an XOR row (sampling-set variables first in a session, then its
	// guard) and a recycled guard variable keeps its column, so the
	// space stays O(|S| + live selectors). The two masks mirror the
	// trail restricted to columned variables, maintained by
	// uncheckedEnqueue and cancelUntil, and make parity folding and
	// watch selection word-parallel.
	xcolOf      []int32   // per var: XOR column, or -1
	xvarOf      []cnf.Var // per column: the variable
	xAssigned   []uint64  // per column bit: variable currently assigned
	xTrue       []uint64  // per column bit: variable assigned true
	xAssignedL0 []uint64  // per column bit: assigned at level 0 (masked out of XOR reasons in analyze)

	assigns  []lbool   // per var
	level    []int     // per var
	reasons  []reason  // per var
	phase    []bool    // saved polarity per var
	activity []float64 // VSIDS activity per var
	seen     []byte    // scratch for analyze

	trail    []cnf.Lit
	trailLim []int
	qhead    int

	order    *varHeap
	priOrder *varHeap // priority variables, branched before `order`
	priority []bool   // per var
	varInc   float64
	claInc   float64

	// nFree counts the unassigned non-selector variables. Every such
	// variable is in a decision heap, so nFree == 0 means the heaps
	// hold only assigned variables and pickBranchLit can report "all
	// assigned" without popping them (see DESIGN §3, Invariants).
	nFree int

	maxLearnts float64
	stats      tally.Vec

	model cnf.Assignment

	// Conflict-analysis scratch, reused across conflicts.
	analyzeLearnt []cnf.Lit
	analyzeSeen   []cnf.Var
	lbdMark       []int64
	lbdStamp      int64

	// Conflict/reason materialization scratch: one buffer for conflict
	// clauses, one for reason lookups during analysis. Each is reused
	// across calls; the previous content is always dead by the time the
	// next materialization overwrites it (see reasonLitsFor).
	conflBuf     []cnf.Lit
	reasonBuf    []cnf.Lit
	sortScratch  []CRef     // reduceDB's sort buffer, reused across reductions
	selClauseBuf cnf.Clause // AddClauseToSelector's normalize/filter buffer
	blockBuf     cnf.Clause // Enumerate's blocking-clause buffer

	// Incremental-session state (see incremental.go).
	isSelector []bool    // per var: a selector's guard variable
	freeXors   []int32   // tombstoned xor slots available for reuse
	modelBound int       // if >0, Model covers vars 1..modelBound only
	freeSels   []cnf.Var // recycled guards, reused by newSelectorVar
	dirtyWatch []cnf.Lit // watch lists holding deleted entries (see deleteClause)
	allocSel   bool      // true while newSelectorVar grows the arrays

	proof        []ProofStep
	constructing bool // true while New loads the base formula
}

// New builds a solver for formula f. XOR clauses of length 1 become unit
// assignments; an empty clause makes the solver permanently UNSAT.
func New(f *cnf.Formula, cfg Config) *Solver {
	s := &Solver{cfg: cfg, ok: true, varInc: 1, claInc: 1, maxLearnts: 4000}
	s.constructing = true
	defer func() { s.constructing = false }()
	s.order = newVarHeap(&s.activity)
	s.priOrder = newVarHeap(&s.activity)
	// Flag the priority variables before growTo inserts them, so each
	// enters priOrder and the first descent already branches on them.
	for _, v := range cfg.PriorityVars {
		if int(v) >= len(s.priority) {
			s.priority = append(s.priority, make([]bool, int(v)+1-len(s.priority))...)
		}
		s.priority[v] = true
	}
	s.growTo(max(f.NumVars, len(s.priority)-1))
	for _, c := range f.Clauses {
		if !s.AddClause(c) {
			return s
		}
	}
	for _, x := range f.XORs {
		if !s.AddXOR(x.Vars, x.RHS) {
			return s
		}
	}
	return s
}

// growTo extends all per-variable and per-literal arrays to cover n vars.
func (s *Solver) growTo(n int) {
	if n <= s.numVars {
		return
	}
	old := s.numVars
	s.numVars = n
	for len(s.assigns) <= n {
		s.assigns = append(s.assigns, lUndef)
	}
	for len(s.level) <= n {
		s.level = append(s.level, 0)
	}
	for len(s.reasons) <= n {
		s.reasons = append(s.reasons, reason{})
	}
	for len(s.phase) <= n {
		s.phase = append(s.phase, false)
	}
	for len(s.activity) <= n {
		s.activity = append(s.activity, 0)
	}
	for len(s.seen) <= n {
		s.seen = append(s.seen, 0)
	}
	for len(s.occXor) <= n {
		s.occXor = append(s.occXor, nil)
	}
	for len(s.xcolOf) <= n {
		s.xcolOf = append(s.xcolOf, -1)
	}
	for len(s.watches) <= 2*n+1 {
		s.watches = append(s.watches, nil)
	}
	for len(s.priority) <= n {
		s.priority = append(s.priority, false)
	}
	for len(s.isSelector) <= n {
		s.isSelector = append(s.isSelector, false)
	}
	s.order.growTo(n)
	s.priOrder.growTo(n)
	for v := old + 1; v <= n; v++ {
		if s.allocSel {
			// Selector variable being allocated: mark it before the heap
			// insertion would happen, so it never enters a decision heap.
			s.isSelector[v] = true
			continue
		}
		s.nFree++
		s.insertOrder(cnf.Var(v))
	}
}

// insertOrder re-inserts an unassigned variable into its decision heap.
// Callers skip selector variables, which are never branched on: they
// are set by assumptions or by propagation only.
func (s *Solver) insertOrder(v cnf.Var) {
	if s.priority[v] {
		s.priOrder.insert(v)
	} else {
		s.order.insert(v)
	}
}

// NumVars returns the number of variables the solver knows about.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns cumulative statistics. ArenaBytes is a gauge sampled
// at call time, not an accumulating counter.
func (s *Solver) Stats() tally.Vec {
	st := s.stats
	st[tally.ArenaBytes] = int64(len(s.ca.store)) * 4
	return st
}

// Okay reports whether the solver is still consistent at level 0.
func (s *Solver) Okay() bool { return s.ok }

func (s *Solver) value(l cnf.Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *Solver) valueVar(v cnf.Var) lbool { return s.assigns[v] }

// isTrue and isFalse are the hot-path forms of value(l) == lTrue /
// lFalse: one load and one compare, no polarity branches. A positive
// literal is true iff its variable is lTrue (1), a negative one iff
// lFalse (2) — so the expected cell value is a linear function of the
// sign bit.
func (s *Solver) isTrue(l cnf.Lit) bool  { return s.assigns[l.Var()] == lTrue+lbool(l&1) }
func (s *Solver) isFalse(l cnf.Lit) bool { return s.assigns[l.Var()] == lFalse-lbool(l&1) }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause at decision level 0, simplifying against the
// top-level assignment. Returns false if the solver became UNSAT.
func (s *Solver) AddClause(c cnf.Clause) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above level 0")
	}
	norm, taut := cnf.NormalizeClause(c)
	if taut {
		return true
	}
	if !s.constructing {
		s.logAxiom(norm) // base-formula clauses are already in f
	}
	for _, l := range norm {
		s.growTo(int(l.Var()))
	}
	out := make(cnf.Clause, 0, len(norm))
	for _, l := range norm {
		switch s.value(l) {
		case lTrue:
			return true // satisfied at level 0
		case lUndef:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		s.logLemma(nil)
		return false
	case 1:
		return s.addUnit(out[0])
	case 2:
		// Permanent binary clauses are carried entirely by their two
		// watchers; no arena block, no index entry.
		s.attachBinary(out[0], out[1])
		return true
	}
	cr := s.ca.alloc(out, false, 0, 0)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

func (s *Solver) addUnit(l cnf.Lit) bool {
	s.growTo(int(l.Var()))
	switch s.value(l) {
	case lFalse:
		s.ok = false
		s.logLemma(nil)
		return false
	case lTrue:
		return true
	}
	s.uncheckedEnqueue(l, reason{})
	if !s.propagate().none() {
		s.ok = false
		s.logLemma(nil)
		return false
	}
	return true
}

// AddXOR adds the parity constraint ⊕vars = rhs at level 0.
func (s *Solver) AddXOR(vars []cnf.Var, rhs bool) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddXOR above level 0")
	}
	norm, nrhs := cnf.NormalizeXOR(vars, rhs)
	if !s.constructing && s.cfg.RecordProof {
		if len(norm) > 12 {
			panic("sat: proof recording cannot expand XOR axioms wider than 12 vars")
		}
		for _, c := range cnf.ExpandXOR(cnf.XORClause{Vars: norm, RHS: nrhs}) {
			s.logAxiom(c)
		}
	}
	return s.installPackedXOR(s.packXORRow(norm), nrhs, 0, 0)
}

// pushXorClause appends (or slot-reuses) an XOR clause and registers it
// in the occurrence lists of its two watched variables.
func (s *Solver) pushXorClause(x xorClause, w0, w1 cnf.Var) {
	var idx int32
	if n := len(s.freeXors); n > 0 {
		idx = s.freeXors[n-1]
		s.freeXors = s.freeXors[:n-1]
		s.xors[idx] = x
	} else {
		idx = int32(len(s.xors))
		s.xors = append(s.xors, x)
	}
	s.occXor[w0] = append(s.occXor[w0], idx)
	s.occXor[w1] = append(s.occXor[w1], idx)
}

// packXORRow assigns XOR columns to the (normalized) variable list and
// packs it into a full-width row over the current column space.
func (s *Solver) packXORRow(norm []cnf.Var) []uint64 {
	for _, v := range norm {
		s.growTo(int(v))
		s.xorColumn(v)
	}
	bits := make([]uint64, gf2.Words(len(s.xvarOf)))
	for _, v := range norm {
		c := s.xcolOf[v]
		bits[c>>6] |= 1 << uint(c&63)
	}
	return bits
}

// xorColumn returns variable v's column in the packed GF(2) space,
// assigning the next one on first use. A variable that already
// carries an assignment when it gets its column is entered into the
// masks immediately (rows keep level-0-assigned variables; the masks
// fold them into parities).
func (s *Solver) xorColumn(v cnf.Var) int {
	if c := s.xcolOf[v]; c >= 0 {
		return int(c)
	}
	c := int32(len(s.xvarOf))
	s.xvarOf = append(s.xvarOf, v)
	for len(s.xAssigned)*64 < len(s.xvarOf) {
		s.xAssigned = append(s.xAssigned, 0)
		s.xTrue = append(s.xTrue, 0)
		s.xAssignedL0 = append(s.xAssignedL0, 0)
	}
	s.xcolOf[v] = c
	if s.assigns[v] != lUndef {
		s.xAssigned[c>>6] |= 1 << uint(c&63)
		if s.assigns[v] == lTrue {
			s.xTrue[c>>6] |= 1 << uint(c&63)
		}
		if s.level[v] == 0 {
			s.xAssignedL0[c>>6] |= 1 << uint(c&63)
		}
	}
	return int(c)
}

// XORColumns assigns (or looks up) XOR columns for vars in order and
// returns the mapping vars-index → solver column, the cols argument of
// AddPackedXORToSelector for rows packed over vars.
func (s *Solver) XORColumns(vars []cnf.Var) []int32 {
	out := make([]int32, len(vars))
	for i, v := range vars {
		s.growTo(int(v))
		out[i] = int32(s.xorColumn(v))
	}
	return out
}

// installPackedXOR installs ⊕{variables of the set columns} = rhs at
// level 0. bits spans the solver's column space at call time and is
// owned by the solver afterwards. Variables already assigned (at level
// 0) stay in the row — the masks account for them — so no filtering
// pass or re-normalization happens. guard/selCol describe the guard
// variable of a removable row and its column (guard 0 for permanent
// rows; the guard's bit is added here only if a row is actually
// installed). Returns false when the solver became UNSAT, which only
// permanent rows can cause.
func (s *Solver) installPackedXOR(bits []uint64, rhs bool, guard cnf.Var, selCol int) bool {
	unassigned := 0
	c1, c2 := -1, -1
	ones := 0
	for w, b := range bits {
		ones += mbits.OnesCount64(b & s.xTrue[w])
		cand := b &^ s.xAssigned[w]
		unassigned += mbits.OnesCount64(cand)
		for cand != 0 && c2 < 0 {
			c := w<<6 | mbits.TrailingZeros64(cand)
			cand &= cand - 1
			if c1 < 0 {
				c1 = c
			} else {
				c2 = c
			}
		}
	}
	par := ones&1 == 1
	if guard != 0 {
		if unassigned == 0 {
			if par != rhs {
				// 0 = 1 under the top-level assignment: activating must
				// give Unsat, which fixing the guard achieves via the
				// assumption check in search.
				s.addUnit(cnf.MkLit(guard, false))
			}
			return true
		}
		bits[selCol>>6] |= 1 << uint(selCol&63)
		win, off := windowRow(bits)
		x := xorClause{bits: win, off: off, rhs: rhs, w: [2]int{selCol, c1}, sel: guard}
		s.pushXorClause(x, guard, s.xvarOf[c1])
		return true
	}
	switch unassigned {
	case 0:
		if par != rhs {
			s.ok = false
			s.logLemma(nil)
			return false
		}
		return true
	case 1:
		need := rhs != par
		return s.addUnit(cnf.MkLit(s.xvarOf[c1], !need))
	}
	win, off := windowRow(bits)
	x := xorClause{bits: win, off: off, rhs: rhs, w: [2]int{c1, c2}}
	s.pushXorClause(x, s.xvarOf[c1], s.xvarOf[c2])
	return true
}

// windowRow trims a full-width row to its covering word span, returning
// the windowed words (copied, so the full-width scratch is not pinned
// for the clause's lifetime) and the global word offset of the first
// one. Propagation cost and retained memory are then proportional to
// the row's own footprint, not the full column space — the difference
// between a 5-variable Tseitin parity and a matrix-wide scan on
// formulas with thousands of XOR columns.
func windowRow(bits []uint64) ([]uint64, int32) {
	lo, hi := -1, 0
	for w, b := range bits {
		if b != 0 {
			if lo < 0 {
				lo = w
			}
			hi = w
		}
	}
	if lo < 0 {
		return nil, 0 // callers never install empty rows, but stay safe
	}
	return append([]uint64(nil), bits[lo:hi+1]...), int32(lo)
}

func (s *Solver) attach(cr CRef) {
	b := s.ca.litBase(cr)
	l0, l1 := cnf.Lit(s.ca.store[b]), cnf.Lit(s.ca.store[b+1])
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{cr: cr, blk: uint32(l1)})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{cr: cr, blk: uint32(l0)})
}

// attachBinary installs a binary clause as two mutually-referencing
// watchers; the clause has no other representation.
func (s *Solver) attachBinary(l0, l1 cnf.Lit) {
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{cr: crefBin, blk: uint32(l1)})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{cr: crefBin, blk: uint32(l0)})
}

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from reason) {
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Neg())
	s.level[v] = s.decisionLevel()
	s.reasons[v] = from
	if !s.isSelector[v] {
		s.nFree--
	}
	if c := s.xcolOf[v]; c >= 0 {
		// Mirror the assignment into the packed XOR masks. Level-0
		// assignments are permanent for the solver's lifetime, so they
		// additionally enter the level-0 mask analyze filters reasons by.
		s.xAssigned[c>>6] |= 1 << uint(c&63)
		if !l.Neg() {
			s.xTrue[c>>6] |= 1 << uint(c&63)
		}
		if len(s.trailLim) == 0 {
			s.xAssignedL0[c>>6] |= 1 << uint(c&63)
		}
	}
	s.trail = append(s.trail, l)
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Neg()
		s.assigns[v] = lUndef
		s.reasons[v] = reason{}
		if c := s.xcolOf[v]; c >= 0 {
			s.xAssigned[c>>6] &^= 1 << uint(c&63)
			s.xTrue[c>>6] &^= 1 << uint(c&63)
		}
		if !s.isSelector[v] {
			s.nFree++
			s.insertOrder(v)
		}
	}
	s.qhead = s.trailLim[lvl]
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
}

// Model returns the satisfying assignment found by the last successful
// Solve. The returned slice is owned by the caller.
func (s *Solver) Model() cnf.Assignment {
	out := make(cnf.Assignment, len(s.model))
	copy(out, s.model)
	return out
}

// ModelValue reports v's value in the last successful Solve's model
// without copying the model; v must be within the model's bound.
func (s *Solver) ModelValue(v cnf.Var) bool { return s.model[v] }

// interrupted reports whether an external Interrupt flag asks the
// current Solve call to stop.
func (s *Solver) interrupted() bool {
	return s.cfg.Interrupt != nil && s.cfg.Interrupt.Load()
}

// Solve searches for a model of the clauses under the given
// assumptions: Enumerate stopped at its first model.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	return s.Enumerate(nil, assumptions, func() bool { return false })
}

// solve runs restarts of search from the current trail until a verdict
// or a budget. The budgets count from the call. On Sat it records the
// model and leaves the trail in place, so Enumerate can go on from it;
// every other exit is at decision level 0.
func (s *Solver) solve(assumptions []cnf.Lit) Status {
	confLimit := int64(-1)
	if s.cfg.MaxConflicts > 0 {
		confLimit = s.stats[tally.Conflicts] + s.cfg.MaxConflicts
	}
	propLimit := int64(-1)
	if s.cfg.MaxPropagations > 0 {
		propLimit = s.stats[tally.Propagations] + s.cfg.MaxPropagations
	}
	restartN := 0
	for {
		n := luby(2.0, restartN) * 100
		restartN++
		switch s.search(int64(n), confLimit, propLimit, assumptions) {
		case Sat:
			nv := s.numVars
			if s.modelBound > 0 && s.modelBound < nv {
				nv = s.modelBound // a session's guard stays out of models
			}
			s.model = slices.Grow(s.model[:0], nv+1)[:nv+1] // Model copies it out
			for v := 1; v <= nv; v++ {
				s.model[v] = s.assigns[v] == lTrue
			}
			return Sat
		case Unsat:
			s.cancelUntil(0)
			return Unsat
		}
		if (confLimit >= 0 && s.stats[tally.Conflicts] >= confLimit) ||
			(propLimit >= 0 && s.stats[tally.Propagations] >= propLimit) ||
			s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		s.cancelUntil(0)
		// Restart-time housekeeping: when reduceDB tombstones have
		// accumulated past the waste threshold, compact the arena now —
		// long single Solve calls must not depend on the session layer's
		// Releases to keep the store bounded.
		s.maybeCompact()
	}
}

// search runs up to nConflicts conflicts (or until confLimit/propLimit
// totals).
func (s *Solver) search(nConflicts, confLimit, propLimit int64, assumptions []cnf.Lit) Status {
	var localConf int64
	for {
		confl := s.propagate()
		if propLimit >= 0 && s.stats[tally.Propagations] >= propLimit {
			return Unknown
		}
		if !confl.none() {
			s.stats[tally.Conflicts]++
			localConf++
			if s.decisionLevel() == 0 {
				s.ok = false
				s.logLemma(nil)
				return Unsat
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.recordLearnt(learnt, lbd)
			s.decayActivities()
			if (confLimit >= 0 && s.stats[tally.Conflicts] >= confLimit) || localConf >= nConflicts ||
				s.interrupted() {
				return Unknown
			}
			continue
		}
		if float64(len(s.learnts)) > s.maxLearnts {
			s.reduceDB()
		}
		next := cnf.Lit(0)
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				return Unsat // assumption contradicted
			default:
				next = a
			}
			break
		}
		if next == 0 {
			next = s.pickBranchLit()
			if next == 0 {
				return Sat // all variables assigned
			}
		}
		s.stats[tally.Decisions]++
		// BSAT enumeration under priority branching is nearly
		// conflict-free, so the budget checks above may never fire; poll
		// the interrupt flag on a decision cadence too.
		if s.stats[tally.Decisions]&1023 == 0 && s.interrupted() {
			return Unknown
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, reason{})
	}
}

// pickBranchLit returns the next decision literal, or 0 when every
// non-selector variable is assigned. The early exit leaves assigned
// variables in the heaps: after a satisfying descent they are all
// still there, and cancelUntil's re-insert is a no-op for them.
func (s *Solver) pickBranchLit() cnf.Lit {
	if s.nFree == 0 {
		return 0
	}
	for _, h := range [2]*varHeap{s.priOrder, s.order} {
		for !h.empty() {
			v := h.removeMax()
			if s.assigns[v] != lUndef {
				continue
			}
			return cnf.MkLit(v, !s.phase[v])
		}
	}
	return 0
}

func (s *Solver) recordLearnt(learnt []cnf.Lit, lbd int) {
	s.stats[tally.Learned]++
	s.logLemma(learnt)
	switch len(learnt) {
	case 1:
		s.uncheckedEnqueue(learnt[0], reason{})
		return
	case 2:
		// Learned binaries without a guard are inlined in their
		// watchers, never deleted (they were exempt from reduceDB before
		// too), and carried as a literal-payload reason. One that holds a
		// guard gets an arena block below, so that Release's sweep
		// deletes it.
		if !s.isSelector[learnt[0].Var()] && !s.isSelector[learnt[1].Var()] {
			s.attachBinary(learnt[0], learnt[1])
			s.uncheckedEnqueue(learnt[0], reason{tag: reasonBinary, ref: uint32(learnt[1])})
			return
		}
	}
	cr := s.ca.alloc(learnt, true, lbd, s.claInc)
	s.learnts = append(s.learnts, cr)
	s.attach(cr)
	s.uncheckedEnqueue(learnt[0], reason{tag: reasonClause, ref: cr})
}

func (s *Solver) decayActivities() {
	s.varInc *= 1 / 0.95
	s.claInc *= 1 / 0.999
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.numVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
	s.priOrder.update(v)
}

func (s *Solver) bumpClause(cr CRef) {
	ord := s.ca.store[cr+1]
	s.ca.act[ord] += s.claInc
	if s.ca.act[ord] > 1e20 {
		for _, c := range s.learnts {
			s.ca.act[s.ca.store[c+1]] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// reduceDB removes the less useful half of the learned clauses,
// keeping glue clauses (LBD ≤ 2, every learned binary with a guard
// among them), clauses that are current reasons on the trail, and —
// implicitly — the other binaries, which never enter the learnt index.
// Locked-reason detection marks reason clauses through the trail via
// the arena's scratch bit instead of building a per-call set, so the
// whole pass is allocation-free in the steady state.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	s.markTrailReasons(true)
	ls := append(s.sortScratch[:0], s.learnts...)
	// Worst first: higher LBD, then lower activity.
	slices.SortFunc(ls, func(a, b CRef) int {
		la, lb := s.ca.lbd(a), s.ca.lbd(b)
		if la != lb {
			return lb - la
		}
		aa, ab := s.ca.activity(a), s.ca.activity(b)
		switch {
		case aa < ab:
			return -1
		case aa > ab:
			return 1
		}
		return 0
	})
	remove := len(ls) / 2
	kept := s.learnts[:0]
	for i, cr := range ls {
		if !s.ca.marked(cr) && (s.satisfiedAtLevel0(cr) || (i < remove && s.ca.lbd(cr) > 2)) {
			s.deleteClause(cr)
			s.stats[tally.Removed]++
			continue
		}
		kept = append(kept, cr)
	}
	s.learnts = kept
	s.sortScratch = ls[:0]
	s.markTrailReasons(false)
	// Full watch sweep: up to half the learnts just died, so most lists
	// are dirty anyway, and the dirty list can be reset wholesale.
	for li := range s.watches {
		ws := s.watches[li]
		w := 0
		for _, wt := range ws {
			if wt.cr == crefBin || !s.ca.deleted(wt.cr) {
				ws[w] = wt
				w++
			}
		}
		s.watches[li] = ws[:w]
	}
	s.dirtyWatch = s.dirtyWatch[:0]
	s.maxLearnts *= 1.3
}

// markTrailReasons sets (or clears) the arena scratch bit on every
// clause currently acting as a reason for a trail assignment. Between
// a true and a false call the trail must not change.
func (s *Solver) markTrailReasons(on bool) {
	for _, l := range s.trail {
		if r := s.reasons[l.Var()]; r.tag == reasonClause {
			if on {
				s.ca.mark(r.ref)
			} else {
				s.ca.unmark(r.ref)
			}
		}
	}
}

// satisfiedAtLevel0 reports whether a clause is satisfied by the
// top-level assignment. Release's sweep deletes such learned and
// guarded clauses, and reduceDB such learned ones.
func (s *Solver) satisfiedAtLevel0(cr CRef) bool {
	b := s.ca.litBase(cr)
	for _, w := range s.ca.store[b : b+s.ca.size(cr)] {
		l := cnf.Lit(w)
		if s.value(l) == lTrue && s.level[l.Var()] == 0 {
			return true
		}
	}
	return false
}

// luby returns the Luby restart sequence value for index i with base y.
func luby(y float64, i int) float64 {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	p := 1.0
	for k := 0; k < seq; k++ {
		p *= y
	}
	return p
}
