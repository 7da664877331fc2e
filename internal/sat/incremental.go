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
// A Selector guards a group of constraints behind a fresh activation
// variable so that they can be switched on per Solve call (by passing
// the selector's activation literal as an assumption) and later deleted
// outright with Release. This is the mechanism that lets one solver —
// with its watch lists, variable activities, and learned clauses — serve
// every BSAT call of a sampling or counting run instead of being rebuilt
// per call:
//
//   - a CNF clause C is stored as (C ∨ ¬a). Assuming a reduces it to C;
//     leaving a unconstrained lets the solver satisfy the guard for free.
//   - an XOR row ⊕vars = rhs is stored as ⊕vars ⊕ a = rhs. Assuming ¬a
//     enforces the row; otherwise a absorbs the parity.
//
// Every learned clause whose derivation used a guarded constraint
// contains the negation of that constraint's activation literal (the
// assumption is a decision, so conflict analysis cannot resolve it
// away). Release therefore (1) hard-deletes the guarded constraints and
// (2) fixes the activation variable at level 0 to the polarity that
// permanently satisfies those learned clauses, which keeps the clause
// database sound without scanning it; reduceDB reclaims the dead
// clauses on its normal schedule.
//
// Level-0 escape hatch: if a removable XOR ever propagates or conflicts
// at decision level 0 (possible only when its selector got fixed at
// level 0 first, e.g. by a learned unit meaning "this cell is empty"),
// the top-level trail would outlive the constraint's deletion. The
// solver flags this with taintL0; results of the call in which the
// taint arose are still valid (all tainting constraints are attached
// and active until the call returns), but the solver must be rebuilt
// before the next call. Sessions poll Tainted and rebuild — in practice
// this is vanishingly rare.

// Selector identifies a removable group of constraints. Clause
// selectors are registered with the solver until released: arena
// compaction must be able to rewrite the CRefs of every guarded clause
// still alive, so an unreleased selector is a GC root (and a selector
// that is never Released pins its clauses for the solver's lifetime).
type Selector struct {
	act      cnf.Lit
	cls      []CRef
	xors     []int32
	regIdx   int // index in Solver.sels; -1 when not registered (XOR selectors)
	released bool
}

// Lit returns the activation literal. Passing it to Solve as an
// assumption enables the selector's constraints for that call.
func (sel *Selector) Lit() cnf.Lit { return sel.act }

// Released reports whether the selector has been released.
func (sel *Selector) Released() bool { return sel.released }

// Tainted reports whether the level-0 state may depend on a removable
// XOR constraint. Once set, results of future Solve calls may be wrong
// after a Release; the owner must discard this solver and rebuild.
func (s *Solver) Tainted() bool { return s.taintL0 }

// SetModelBound restricts Model (and Solve's model extraction) to
// variables 1..n. Sessions set it to the base formula's variable count
// so that model extraction stays O(|formula|) no matter how many
// selector variables accumulate.
func (s *Solver) SetModelBound(n int) { s.modelBound = n }

// gcWasteDenom triggers a compaction when deleted blocks hold more
// than 1/gcWasteDenom of what a compaction walks: the arena's words
// plus the watch table's lists, two per variable of the selector-grown
// variable space.
const gcWasteDenom = 5

// CollectGarbage removes learned clauses that are permanently
// satisfied by the top-level assignment — after a batch of Releases
// these are the clauses guarded by the released selectors — and
// reclaims their space. When tombstones have accumulated past the
// waste threshold this is a compacting copy: live clauses are
// relocated to the front of a fresh store and every CRef holder
// (watch lists, trail reasons, the clause indices, unreleased
// selectors) is rewritten in the same pass, so the space of released
// selector clauses is actually returned instead of lingering as
// tombstones. Below the threshold only the dirty watch lists are
// swept; the sweep matters because propagation drops deleted watchers
// only when it inspects them, and a watcher whose blocker literal
// happens to be true is kept without inspection, so released blocking
// clauses would otherwise pile up in the watch lists of a small
// sampling set forever. Must be called between Solve calls.
func (s *Solver) CollectGarbage() {
	if s.decisionLevel() != 0 {
		return
	}
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
		// released learned binary {l, ¬a} lands exactly here: a is fixed
		// false, so watches[a] is such a list.
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
// without sweeping the entire (selector-grown) watch table.
// Propagation keeps skipping and dropping deleted watchers it happens
// to visit in the meantime; the block's space is reclaimed by the next
// compaction.
func (s *Solver) deleteClause(cr CRef) {
	b := s.ca.litBase(cr)
	s.dirtyWatch = append(s.dirtyWatch,
		cnf.Lit(s.ca.store[b]).Not(), cnf.Lit(s.ca.store[b+1]).Not())
	s.ca.del(cr)
}

// newSelectorVar allocates a fresh variable of the given selector kind,
// excluded from the branching heaps (growTo consults allocSelKind so
// the variable is marked before any heap insertion could happen).
func (s *Solver) newSelectorVar(kind byte) cnf.Var {
	v := cnf.Var(s.numVars + 1)
	s.allocSelKind = kind
	s.growTo(int(v))
	s.allocSelKind = selNone
	return v
}

// NewClauseSelector allocates a selector guarding no clauses yet; add
// them with AddClauseToSelector. Grouping many clauses under one
// selector (e.g. all blocking clauses of one enumeration cell) keeps
// the per-Solve assumption list short.
func (s *Solver) NewClauseSelector() *Selector {
	if s.decisionLevel() != 0 {
		panic("sat: NewClauseSelector above level 0")
	}
	sel := &Selector{act: cnf.MkLit(s.newSelectorVar(selClause), false), regIdx: len(s.sels)}
	s.sels = append(s.sels, sel)
	return sel
}

// AddClauseRemovable adds clause c guarded by a fresh selector. The
// clause constrains the search only in Solve calls whose assumptions
// include sel.Lit(). Must be called at decision level 0.
func (s *Solver) AddClauseRemovable(c cnf.Clause) *Selector {
	sel := s.NewClauseSelector()
	s.AddClauseToSelector(sel, c)
	return sel
}

// AddClauseToSelector adds clause c under an existing, unreleased
// clause selector. Must be called at decision level 0.
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
		// this selector must yield Unsat, which fixing ¬a achieves via
		// the assumption check in search.
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

// AddPackedXORRemovable installs a drawn GF(2) row as a removable
// constraint without materializing a variable slice: bit c of bits
// refers to solver XOR column cols[c], or — when cols is nil — to
// solver column c directly. The nil (identity) case is the column-map
// contract with hashfam: a session registers the sampling set via
// XORColumns before any selector exists, hash rows are packed over the
// sampling set in the same order, and installation is a word copy plus
// one selector bit. bits is not retained. Must be called at decision
// level 0.
func (s *Solver) AddPackedXORRemovable(bits []uint64, rhs bool, cols []int32) *Selector {
	if s.decisionLevel() != 0 {
		panic("sat: AddPackedXORRemovable above level 0")
	}
	v := s.newSelectorVar(selXORGuard)
	sel := &Selector{act: cnf.MkLit(v, true), regIdx: -1} // active when a = false
	if !s.ok {
		return sel
	}
	selCol := s.xorColumn(v)
	row := make([]uint64, gf2.Words(len(s.xvarOf)))
	if cols == nil {
		copy(row, bits)
	} else {
		for w, b := range bits {
			for b != 0 {
				c := w<<6 | mbits.TrailingZeros64(b)
				b &= b - 1
				sc := cols[c]
				row[sc>>6] |= 1 << uint(sc&63)
			}
		}
	}
	s.installPackedXOR(row, rhs, sel, selCol)
	if len(sel.xors) == 0 {
		// The row resolved at level 0 (empty or fully assigned): no
		// constraint holds the column, so recycle it right away.
		s.freeXorColumn(v)
	}
	return sel
}

// Release permanently deletes the selector's constraints. Guarded CNF
// clauses are detached, guarded XOR rows are removed from the watch
// structures and their slots recycled, and the activation variable is
// fixed so that stale learned clauses become permanently satisfied.
// Idempotent; must be called between Solve calls.
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
	if sel.regIdx >= 0 {
		// Unregister from the compaction roots (swap-delete).
		last := len(s.sels) - 1
		s.sels[sel.regIdx] = s.sels[last]
		s.sels[sel.regIdx].regIdx = sel.regIdx
		s.sels[last] = nil
		s.sels = s.sels[:last]
		sel.regIdx = -1
	}
	for _, xi := range sel.xors {
		x := &s.xors[xi]
		s.detachXORWatch(s.xvarOf[x.w[0]], xi)
		s.detachXORWatch(s.xvarOf[x.w[1]], xi)
		s.freeXorColumn(x.sel)
		s.xors[xi] = xorClause{}
		s.freeXors = append(s.freeXors, xi)
	}
	sel.xors = nil
	if !s.ok {
		return
	}
	// Learned clauses that depended on this selector contain act.Not();
	// assert it so they are satisfied forever. The selector variable
	// occurs in no other constraint, so nothing else propagates. Skip if
	// the variable was already fixed at level 0 (either polarity is
	// sound at that point: see the package comment in this file).
	if s.value(sel.act) == lUndef {
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
