package sat

import (
	mbits "math/bits"
	"slices"

	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/tally"
)

// Incremental solving with retractable constraints.
//
// A Selector guards a group of constraints behind one guard variable a
// so that they can be switched on per Solve call (by assuming the
// selector's literal ¬a) and later deleted outright with Release. This
// is the mechanism that lets one solver — with its watch lists,
// variable activities, and learned clauses — serve every BSAT call of a
// sampling or counting run instead of being rebuilt per call:
//
//   - a CNF clause C is stored as C ∨ a. Assuming ¬a reduces it to C;
//     leaving a unconstrained lets the solver satisfy it for free.
//   - an XOR row ⊕vars = rhs is stored with a as an extra watched
//     column, and means (⊕vars = rhs) ∨ a. Once a is true the row
//     constrains nothing: propagation skips it. A row that its
//     variables violate forces a true; a row they satisfy leaves a free.
//
// Either way ¬a is an activation literal (Eén and Sörensson, "Temporal
// induction by incremental SAT solving", 2003): a true switches the
// group off, and no constraint ever forces a false. Every learned
// clause whose derivation used a guarded constraint contains a (the
// assumption ¬a is a decision, so conflict analysis cannot resolve it
// away), and no clause contains ¬a. Release therefore (1) hard-deletes
// the guarded constraints and (2) fixes a true at level 0, which
// satisfies those learned clauses and shortens none.
//
// The same rule keeps level 0 clean between calls: every level-0 guard
// is true, so no guarded constraint writes a formula literal onto the
// level-0 trail, and every level-0 formula literal is a consequence of
// the base formula. A level-0 conflict therefore proves the base
// formula (with its permanent clauses) UNSAT.
//
// CollectGarbage then recycles the released guard, as MiniSat 2.2's
// releaseVar does, so a session that makes one selector per call holds
// one guard variable for its whole life. When the variable is reused no
// clause may mention it. The learned-clause sweep deletes every learned
// clause holding a, all satisfied by a at level 0, including one that
// fixed a there: a leaves the trail first, so that clause is no longer
// locked as a reason. Learned binaries live only in watchers, so they
// are purged from both of their watch lists. Then a leaves the level-0
// assignment. Nothing else on the trail rests on it: a true falsifies
// no literal of any clause, and a row whose guard is true propagates
// nothing.

// Selector identifies a removable group of clauses and XOR rows under
// one guard variable. Every selector is registered with the solver
// until released: arena compaction must be able to rewrite the CRefs
// of every guarded clause still alive, so an unreleased selector is a
// GC root (and a selector that is never Released pins its constraints
// for the solver's lifetime). Once CollectGarbage has run, a released
// selector's variable may guard a later selector, so its literal must
// not be assumed again.
type Selector struct {
	act      cnf.Lit // ¬a for the guard variable a
	cls      []CRef
	xors     []int32
	regIdx   int // index in Solver.sels
	released bool
}

// Lit returns the activation literal. Passing it to Solve as an
// assumption enables the selector's constraints for that call.
func (sel *Selector) Lit() cnf.Lit { return sel.act }

// Released reports whether the selector has been released.
func (sel *Selector) Released() bool { return sel.released }

// SetModelBound restricts Model (and Solve's model extraction) to
// variables 1..n. Sessions set it to the base formula's variable count,
// so that their guard variable, which follows the formula's, never
// shows in a witness.
func (s *Solver) SetModelBound(n int) { s.modelBound = n }

// gcWasteDenom triggers a compaction when deleted blocks hold more
// than 1/gcWasteDenom of what a compaction walks: the arena's words
// plus the watch table's lists, two per variable.
const gcWasteDenom = 5

// CollectGarbage removes learned clauses that are permanently
// satisfied by the top-level assignment — after a batch of Releases
// these are the clauses guarded by the released selectors — recycles
// the released selectors' guard variables (see the comment at the top
// of this file) and reclaims the clauses' space. When tombstones have
// accumulated past the waste threshold this is a compacting copy: live
// clauses are relocated to the front of a fresh store and every CRef
// holder (watch lists, trail reasons, the clause indices, unreleased
// selectors) is rewritten in the same pass. Below the threshold only
// the dirty watch lists are swept; the sweep matters because
// propagation drops deleted watchers only when it inspects them, and a
// watcher whose blocker literal happens to be true is kept without
// inspection, so released blocking clauses would otherwise pile up in
// the watch lists of a small sampling set forever. Must be called
// between Solve calls.
func (s *Solver) CollectGarbage() {
	if s.decisionLevel() != 0 {
		return
	}
	// Released guards leave the trail before the reasons are marked, so
	// the clause that fixed one at level 0 is swept with the rest; they
	// keep their value until the sweep is done.
	kept, qhead := 0, s.qhead
	for i, l := range s.trail {
		if s.isSelector[l.Var()] && slices.Contains(s.released, l.Var()) {
			if i < s.qhead {
				qhead--
			}
			continue
		}
		s.trail[kept] = l
		kept++
	}
	s.trail, s.qhead = s.trail[:kept], qhead
	// Learned clauses still acting as level-0 reasons must survive even
	// when satisfied at level 0; mark them through the trail (which at
	// this point holds exactly the level-0 assignments).
	s.markTrailReasons(true)
	w := 0
	for _, cr := range s.learnts {
		if !s.ca.marked(cr) && s.satisfiedAtLevel0(cr) {
			s.deleteClause(cr)
			s.stats[tally.Removed]++
			continue
		}
		s.learnts[w] = cr
		w++
	}
	s.learnts = s.learnts[:w]
	s.markTrailReasons(false)
	for _, v := range s.released {
		s.recycleGuard(v)
	}
	s.released = s.released[:0]
	if s.maybeCompact() {
		return // compaction rewrote every watch list; nothing left to sweep
	}
	for _, li := range s.dirtyWatch {
		ws := s.watches[li]
		n := 0
		for _, wt := range ws {
			if wt.cr == crefBin || !s.ca.deleted(wt.cr) {
				ws[n] = wt
				n++
			}
		}
		s.watches[li] = ws[:n]
	}
	s.dirtyWatch = s.dirtyWatch[:0]
}

// recycleGuard hands released guard variable v to newSelectorVar once
// CollectGarbage has deleted the learned clauses holding it. It purges
// the learned binaries {v, l}: the watcher in v's list carries l, and
// its mirror in ¬l's list carries v. The rest of v's list watches
// deleted clauses. Then v leaves the level-0 assignment.
func (s *Solver) recycleGuard(v cnf.Var) {
	a := cnf.MkLit(v, false) // true: the guard's constraints off
	for _, wt := range s.watches[a.Not()] {
		if wt.cr == crefBin {
			ml := wt.blocker().Not()
			s.watches[ml] = slices.DeleteFunc(s.watches[ml], func(m watcher) bool {
				return m.cr == crefBin && m.blocker() == a
			})
		}
	}
	s.watches[a.Not()] = s.watches[a.Not()][:0]
	s.assigns[v] = lUndef
	s.reasons[v] = reason{}
	if c := s.xcolOf[v]; c >= 0 {
		s.xAssigned[c>>6] &^= 1 << uint(c&63)
		s.xTrue[c>>6] &^= 1 << uint(c&63)
		s.xAssignedL0[c>>6] &^= 1 << uint(c&63)
	}
	s.freeSels = append(s.freeSels, v)
}

// maybeCompact compacts the arena if the waste threshold is exceeded.
// Must be called at decision level 0.
func (s *Solver) maybeCompact() bool {
	if s.ca.wasted == 0 || s.ca.wasted*gcWasteDenom < len(s.ca.store)+len(s.watches) {
		return false
	}
	s.compactArena()
	return true
}

// CompactArena forces an arena compaction immediately, regardless of
// the waste threshold. Exposed for tests and diagnostics; sessions
// rely on CollectGarbage's automatic trigger. Must be called at
// decision level 0, between Solve calls.
func (s *Solver) CompactArena() {
	if s.decisionLevel() != 0 {
		panic("sat: CompactArena above level 0")
	}
	s.compactArena()
}

// compactArena is the relocation pass: every live clause (and every
// deleted block still referenced as a trail reason) is copied to the
// front of a fresh store, a forwarding CRef is left in the old block
// (mark bit + the word after the header), and all CRef holders are
// rewritten — the problem and learnt indices, unreleased selectors'
// clause lists, trail reasons, and every watch list. Watchers of
// deleted clauses and inlined-binary watchers whose blocker is
// permanently true are dropped along the way. The old store is kept
// as the allocation target of the next compaction, so a session in
// steady state compacts with no allocation at all.
func (s *Solver) compactArena() {
	from := s.ca.store
	to := s.ca.spare[:0]
	if need := len(from) - s.ca.wasted; cap(to) < need {
		to = make([]uint32, 0, need)
	}
	wasted := 0
	reloc := func(cr CRef) CRef {
		h := from[cr]
		if h&hdrMark != 0 {
			return from[cr+1] // already forwarded
		}
		nc := CRef(len(to))
		n := s.ca.blockLen(cr) // ca.store is still `from` until the swap below
		to = append(to, from[cr:int(cr)+n]...)
		if h&hdrDeleted != 0 {
			wasted += n // deleted trail-reason blocks ride along
		}
		from[cr] = h | hdrMark
		from[cr+1] = nc
		return nc
	}
	for i, cr := range s.clauses {
		s.clauses[i] = reloc(cr)
	}
	for i, cr := range s.learnts {
		s.learnts[i] = reloc(cr)
	}
	for _, sel := range s.sels {
		for i, cr := range sel.cls {
			sel.cls[i] = reloc(cr)
		}
	}
	for _, l := range s.trail {
		if r := s.reasons[l.Var()]; r.tag == reasonClause {
			s.reasons[l.Var()] = reason{tag: reasonClause, ref: reloc(r.ref)}
		}
	}
	for li := range s.watches {
		ws := s.watches[li]
		// A list whose own literal is permanently false can never be
		// traversed again (the literal would have to become true); its
		// inlined-binary entries are dead weight. The mirror entry of a
		// released guard's learned binary {l, a} lands exactly here
		// until CollectGarbage recycles a: a is fixed true, so
		// watches[¬a] is such a list.
		wl := cnf.Lit(li)
		deadList := wl != 0 && s.value(wl) == lFalse && s.level[wl.Var()] == 0
		w := 0
		for _, wt := range ws {
			if wt.cr == crefBin {
				if deadList {
					continue
				}
				if blk := wt.blocker(); s.value(blk) == lTrue && s.level[blk.Var()] == 0 {
					continue // binary clause permanently satisfied
				}
				ws[w] = wt
				w++
				continue
			}
			h := from[wt.cr]
			if h&hdrDeleted != 0 {
				continue
			}
			if h&hdrMark == 0 {
				panic("sat: live watched clause missing from all GC roots")
			}
			wt.cr = from[wt.cr+1]
			ws[w] = wt
			w++
		}
		s.watches[li] = ws[:w]
	}
	s.ca.spare = from[:0]
	s.ca.store = to
	s.ca.wasted = wasted
	s.dirtyWatch = s.dirtyWatch[:0]
	s.stats[tally.Compactions]++
}

// deleteClause tombstones an arena clause and records its two watch
// lists as dirty so CollectGarbage can purge the stale watchers
// without sweeping the entire watch table.
// Propagation keeps skipping and dropping deleted watchers it happens
// to visit in the meantime; the block's space is reclaimed by the next
// compaction.
func (s *Solver) deleteClause(cr CRef) {
	b := s.ca.litBase(cr)
	s.dirtyWatch = append(s.dirtyWatch,
		cnf.Lit(s.ca.store[b]).Not(), cnf.Lit(s.ca.store[b+1]).Not())
	s.ca.del(cr)
}

// newSelectorVar returns a guard variable that CollectGarbage has
// recycled, or else a fresh one, excluded from the branching heaps
// (growTo consults allocSel so the variable is marked before any heap
// insertion could happen).
func (s *Solver) newSelectorVar() cnf.Var {
	if n := len(s.freeSels); n > 0 {
		v := s.freeSels[n-1]
		s.freeSels = s.freeSels[:n-1]
		return v
	}
	v := cnf.Var(s.numVars + 1)
	s.allocSel = true
	s.growTo(int(v))
	s.allocSel = false
	return v
}

// NewSelector allocates a selector guarding nothing yet; add clauses
// with AddClauseToSelector and XOR rows with AddPackedXORToSelector.
// Grouping a cell's constraints under one selector (a session's hash
// rows, known members and blocking clauses) keeps the per-Solve
// assumption list to one literal.
func (s *Solver) NewSelector() *Selector {
	if s.decisionLevel() != 0 {
		panic("sat: NewSelector above level 0")
	}
	sel := &Selector{act: cnf.MkLit(s.newSelectorVar(), true), regIdx: len(s.sels)}
	s.sels = append(s.sels, sel)
	return sel
}

// AddClauseRemovable adds clause c guarded by a fresh selector. The
// clause constrains the search only in Solve calls whose assumptions
// include sel.Lit(). Must be called at decision level 0.
func (s *Solver) AddClauseRemovable(c cnf.Clause) *Selector {
	sel := s.NewSelector()
	s.AddClauseToSelector(sel, c)
	return sel
}

// AddClauseToSelector adds clause c under an existing, unreleased
// selector. Must be called at decision level 0.
func (s *Solver) AddClauseToSelector(sel *Selector, c cnf.Clause) {
	if s.decisionLevel() != 0 {
		panic("sat: AddClauseToSelector above level 0")
	}
	if sel.released {
		panic("sat: AddClauseToSelector on a released selector")
	}
	if !s.ok {
		return
	}
	s.selClauseBuf = slices.Grow(s.selClauseBuf[:0], len(c)+1) // +1: the guard literal
	norm, taut := cnf.NormalizeClauseInto(s.selClauseBuf, c)
	if taut {
		return
	}
	for _, l := range norm {
		s.growTo(int(l.Var()))
	}
	out := norm[:0] // filtered in place: out never overtakes norm
	for _, l := range norm {
		switch s.value(l) {
		case lTrue:
			return // permanently satisfied: activating is a no-op
		case lUndef:
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		// The clause is false under the top-level assignment: activating
		// this selector must yield Unsat, which fixing the guard true
		// achieves via the assumption check in search.
		s.addUnit(sel.act.Not())
		return
	}
	s.attachSelectorClause(sel, append(out, sel.act.Not()))
}

// attachSelectorClause stores c, which holds sel's guard literal, as
// one of sel's clauses, watched on its first two literals. Removable
// clauses always get arena blocks, even binary ones: Release needs an
// address to delete. The generic watch path handles size-2 arena
// clauses correctly (the replacement scan is simply empty).
func (s *Solver) attachSelectorClause(sel *Selector, c []cnf.Lit) CRef {
	cr := s.ca.alloc(c, false, 0, 0)
	sel.cls = append(sel.cls, cr)
	s.attach(cr)
	return cr
}

// AddPackedXORToSelector adds a drawn GF(2) row under an existing,
// unreleased selector without materializing a variable slice: bit c of
// bits stands for solver XOR column cols[c] (see XORColumns). bits is
// not retained. Must be called at decision level 0.
func (s *Solver) AddPackedXORToSelector(sel *Selector, bits []uint64, rhs bool, cols []int32) {
	if s.decisionLevel() != 0 {
		panic("sat: AddPackedXORToSelector above level 0")
	}
	if sel.released {
		panic("sat: AddPackedXORToSelector on a released selector")
	}
	if !s.ok {
		return
	}
	selCol := s.xorColumn(sel.act.Var())
	row := make([]uint64, gf2.Words(len(s.xvarOf)))
	for w, b := range bits {
		for b != 0 {
			c := w<<6 | mbits.TrailingZeros64(b)
			b &= b - 1
			sc := cols[c]
			row[sc>>6] |= 1 << uint(sc&63)
		}
	}
	s.installPackedXOR(row, rhs, sel, selCol)
}

// Release permanently deletes the selector's constraints: its clauses
// are detached and its XOR rows removed from the watch structures and
// their slots recycled. The guard is fixed true at level 0, so that
// stale learned clauses become permanently satisfied, and queued for
// CollectGarbage to recycle. Idempotent; must be called between Solve
// calls.
func (s *Solver) Release(sel *Selector) {
	if sel == nil || sel.released {
		return
	}
	sel.released = true
	s.cancelUntil(0)
	for _, cr := range sel.cls {
		s.deleteClause(cr)
	}
	sel.cls = nil
	// Unregister from the compaction roots (swap-delete).
	last := len(s.sels) - 1
	s.sels[sel.regIdx] = s.sels[last]
	s.sels[sel.regIdx].regIdx = sel.regIdx
	s.sels[last] = nil
	s.sels = s.sels[:last]
	for _, xi := range sel.xors {
		x := &s.xors[xi]
		s.detachXORWatch(s.xvarOf[x.w[0]], xi)
		s.detachXORWatch(s.xvarOf[x.w[1]], xi)
		s.xors[xi] = xorClause{}
		s.freeXors = append(s.freeXors, xi)
	}
	sel.xors = nil
	s.released = append(s.released, sel.act.Var())
	// Learned clauses that depended on this selector contain its guard
	// a; fix a true so they are satisfied until CollectGarbage deletes
	// them. Nothing else propagates: no constraint holds ¬a. Skip if a
	// learned clause fixed a at level 0 already (see the comment at the
	// top of this file).
	if s.ok && s.value(sel.act) == lUndef {
		s.addUnit(sel.act.Not())
	}
}

// detachXORWatch removes xor index xi from v's occurrence list.
func (s *Solver) detachXORWatch(v cnf.Var, xi int32) {
	occ := s.occXor[v]
	w := 0
	for _, o := range occ {
		if o != xi {
			occ[w] = o
			w++
		}
	}
	s.occXor[v] = occ[:w]
}
