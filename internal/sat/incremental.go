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
// away), and no clause contains ¬a.
//
// The same rule keeps level 0 clean between calls: every level-0 guard
// is true, so no guarded constraint writes a formula literal onto the
// level-0 trail, and every level-0 formula literal is a consequence of
// the base formula. A level-0 conflict therefore proves the base
// formula (with its permanent clauses) UNSAT.
//
// Release reclaims a guard in one step, as MiniSat 2.2's releaseVar
// with simplify does, so a session that makes one selector per call
// holds one guard variable for its whole life. It fixes a true at
// level 0 and takes it off the trail, so the clause that fixed it
// there, if any, is no longer locked as a reason. a keeps its value
// while one sweep deletes every learned and guarded clause and every
// XOR row that the level-0 assignment satisfies. Every constraint that
// mentions a holds a itself, so all of them go: a learned binary that
// holds a guard gets an arena block for this reason, instead of living
// only in its watchers. Then a is unassigned and handed to the next
// NewSelector. Nothing else on the trail rests on it: a true falsifies
// no literal of any clause, and a row whose guard is true propagates
// nothing.

// Selector identifies a removable group of clauses and XOR rows under
// one guard variable. Once released, its variable may guard a later
// selector, so its literal must not be assumed again.
type Selector struct {
	act      cnf.Lit // ¬a for the guard variable a
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

// sweepSatisfied deletes every learned and guarded clause that the
// level-0 assignment satisfies, except the trail's reasons, and
// detaches every XOR row whose guard is true at level 0, freeing its
// slot. Must be called at decision level 0.
func (s *Solver) sweepSatisfied() {
	s.markTrailReasons(true)
	del := func(cr CRef) bool {
		if s.ca.marked(cr) || !s.satisfiedAtLevel0(cr) {
			return false
		}
		s.deleteClause(cr)
		return true
	}
	n := len(s.learnts)
	s.learnts = slices.DeleteFunc(s.learnts, del)
	s.stats[tally.Removed] += int64(n - len(s.learnts))
	s.guarded = slices.DeleteFunc(s.guarded, del)
	s.markTrailReasons(false)
	for xi := range s.xors {
		x := &s.xors[xi]
		if x.sel != 0 && s.assigns[x.sel] == lTrue {
			for _, c := range x.w {
				v := s.xvarOf[c]
				s.occXor[v] = slices.DeleteFunc(s.occXor[v], func(o int32) bool { return o == int32(xi) })
			}
			*x = xorClause{}
			s.freeXors = append(s.freeXors, int32(xi))
		}
	}
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
// rely on Release's automatic trigger. Must be called at decision
// level 0, between Solve calls.
func (s *Solver) CompactArena() {
	if s.decisionLevel() != 0 {
		panic("sat: CompactArena above level 0")
	}
	s.compactArena()
}

// compactArena is the relocation pass: every live clause is copied to
// the front of a fresh store, a forwarding CRef is left in the old
// block (mark bit + the word after the header), and all CRef holders
// are rewritten — the problem, learnt and guarded indices, trail
// reasons, and every watch list. No root holds a deleted block:
// reduceDB and Release's sweep keep the clauses the trail rests on, so
// reloc panics on one. Watchers of deleted clauses and inlined-binary watchers whose blocker
// is permanently true are dropped along the way. The old store is kept
// as the allocation target of the next compaction, so a session in
// steady state compacts with no allocation at all.
func (s *Solver) compactArena() {
	from := s.ca.store
	to := s.ca.spare[:0]
	if need := len(from) - s.ca.wasted; cap(to) < need {
		to = make([]uint32, 0, need)
	}
	reloc := func(cr CRef) CRef {
		h := from[cr]
		if h&hdrMark != 0 {
			return from[cr+1] // already forwarded
		}
		if h&hdrDeleted != 0 {
			panic("sat: deleted clause held by a GC root")
		}
		nc := CRef(len(to))
		n := s.ca.blockLen(cr) // ca.store is still `from` until the swap below
		to = append(to, from[cr:int(cr)+n]...)
		from[cr] = h | hdrMark
		from[cr+1] = nc
		return nc
	}
	for _, idx := range [][]CRef{s.clauses, s.learnts, s.guarded} {
		for i, cr := range idx {
			idx[i] = reloc(cr)
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
		// inlined-binary entries are dead weight. Only formula literals
		// qualify: no inlined binary holds a guard, whose level-0 value
		// Release takes back.
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
	s.ca.wasted = 0
	s.dirtyWatch = s.dirtyWatch[:0]
	s.stats[tally.Compactions]++
}

// deleteClause tombstones an arena clause and records its two watch
// lists as dirty so Release can purge the stale watchers without
// sweeping the entire watch table.
// Propagation keeps skipping and dropping deleted watchers it happens
// to visit in the meantime; the block's space is reclaimed by the next
// compaction.
func (s *Solver) deleteClause(cr CRef) {
	b := s.ca.litBase(cr)
	s.dirtyWatch = append(s.dirtyWatch,
		cnf.Lit(s.ca.store[b]).Not(), cnf.Lit(s.ca.store[b+1]).Not())
	s.ca.del(cr)
}

// newSelectorVar returns a guard variable that Release has recycled,
// or else a fresh one, excluded from the branching heaps (growTo
// consults allocSel so the variable is marked before any heap
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
	return &Selector{act: cnf.MkLit(s.newSelectorVar(), true)}
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
	s.attachGuarded(append(out, sel.act.Not()))
}

// attachGuarded stores c, which holds a guard literal, in the guarded
// index, watched on its first two literals. Guarded clauses always get
// arena blocks, even binary ones: Release's sweep deletes them through
// the index. The generic watch path handles size-2 arena clauses
// correctly (the replacement scan is simply empty).
func (s *Solver) attachGuarded(c []cnf.Lit) CRef {
	cr := s.ca.alloc(c, false, 0, 0)
	s.guarded = append(s.guarded, cr)
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
	guard := sel.act.Var()
	selCol := s.xorColumn(guard)
	row := make([]uint64, gf2.Words(len(s.xvarOf)))
	for w, b := range bits {
		for b != 0 {
			c := w<<6 | mbits.TrailingZeros64(b)
			b &= b - 1
			sc := cols[c]
			row[sc>>6] |= 1 << uint(sc&63)
		}
	}
	s.installPackedXOR(row, rhs, guard, selCol)
}

// Release deletes the selector's constraints, with every learned
// clause that depends on them, and recycles its guard variable a for
// the next NewSelector (see the comment at the top of this file). It
// fixes a true at level 0, takes a off the trail, sweeps what a true
// satisfies and unassigns a. When the sweep's waste crosses the
// threshold it compacts the arena; otherwise it purges the deleted
// clauses' watchers from their dirty lists, since propagation drops a
// deleted watcher only when it inspects it, and a watcher whose
// blocker is true is kept without inspection. Idempotent; must be
// called between Solve calls.
func (s *Solver) Release(sel *Selector) {
	if sel == nil || sel.released {
		return
	}
	sel.released = true
	s.cancelUntil(0)
	a := sel.act.Not() // true: the guard's constraints off
	v := a.Var()
	s.addUnit(a) // no-op when a is fixed at level 0 already
	i := slices.Index(s.trail, a)
	s.trail = slices.Delete(s.trail, i, i+1)
	if i < s.qhead {
		s.qhead--
	}
	s.sweepSatisfied()
	s.assigns[v], s.reasons[v] = lUndef, reason{}
	if c := s.xcolOf[v]; c >= 0 {
		s.xAssigned[c>>6] &^= 1 << uint(c&63)
		s.xTrue[c>>6] &^= 1 << uint(c&63)
		s.xAssignedL0[c>>6] &^= 1 << uint(c&63)
	}
	s.freeSels = append(s.freeSels, v)
	if s.maybeCompact() {
		return // compaction rewrote every watch list; nothing left to sweep
	}
	for _, li := range s.dirtyWatch {
		s.watches[li] = slices.DeleteFunc(s.watches[li], func(wt watcher) bool {
			return wt.cr != crefBin && s.ca.deleted(wt.cr)
		})
	}
	s.dirtyWatch = s.dirtyWatch[:0]
}
