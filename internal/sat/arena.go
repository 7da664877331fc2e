package sat

import "unigen/internal/cnf"

// Clause arena: every CNF clause of the solver — problem, learned, and
// removable — lives in one flat []uint32 store and is addressed by a
// CRef, the index of its header word. This is the MiniSat/Glucose
// memory layout: a clause is one contiguous block (header, then its
// literals inline), so propagation walks cache-line-contiguous memory
// instead of chasing per-clause Go heap pointers, clause learning in
// the steady state is a bump allocation into the store, and deletion
// is a header bit whose space a compacting GC pass reclaims.
//
// Block layout at CRef c:
//
//	store[c]        header: size<<11 | lbd<<3 | mark<<2 | learnt<<1 | deleted
//	store[c+1]      learnt clauses only: activity ordinal (index into act)
//	store[c+1+L:]   the literals, one uint32 word each (L = learnt bit)
//
// The LBD field saturates at 255 and the size field holds up to 2^21-1
// literals; both are fixed for the clause's lifetime. The mark bit is
// transient scratch, used for two disjoint jobs: locked-reason marking
// during reduceDB and Release's sweep (set from the trail, cleared from
// the trail) and the relocated flag during compaction (when set there,
// the word at c+1 holds the forwarding CRef instead of its normal
// content).
//
// Clause activities live in a side slice indexed by a learnt ordinal
// rather than inline: they are touched only by bumping and reduceDB
// sorting, not by propagation, and keeping them out of the store keeps
// relocation a plain word copy. Ordinals are free-listed on deletion,
// so the side slice stays O(live learnts).
//
// Binary clauses added by AddClause and recordLearnt never enter the
// arena: the watcher itself carries the whole clause (the blocker IS
// the other literal, tagged crefBin), so binary propagation touches no
// clause memory at all. Binary clauses that hold a guard do get arena
// blocks, guarded units and learned binaries alike: Release's sweep
// finds what to delete through the guarded and learnt indices.

// CRef addresses a clause in the solver's arena. CRefs are dense
// indices, not pointers: a compaction (in Release or at a restart)
// relocates live clauses and rewrites every CRef the solver itself
// holds — watch lists, trail reasons, and the problem, learnt and
// guarded indices. No other holder survives relocation; callers must
// not keep a CRef across Solve or Release.
type CRef = uint32

const (
	crefUndef CRef = ^CRef(0)     // "no clause" sentinel
	crefBin   CRef = ^CRef(0) - 1 // watcher tag: binary clause inlined in the watcher
)

// Header bit layout.
const (
	hdrDeleted   uint32 = 1 << 0
	hdrLearnt    uint32 = 1 << 1
	hdrMark      uint32 = 1 << 2
	hdrLBDShift         = 3
	hdrLBDMask   uint32 = 0xff
	hdrSizeShift        = 11

	maxLBD        = 255
	maxClauseSize = 1<<(32-hdrSizeShift) - 1
)

// arena owns the flat store and the learnt-activity side slice.
type arena struct {
	store    []uint32
	act      []float64 // learnt activity, indexed by the block's ordinal word
	freeActs []uint32  // recycled ordinals of deleted learnts
	wasted   int       // words held by deleted blocks, reclaimable by compaction
	spare    []uint32  // retired store, recycled as the next compaction target
}

// alloc appends a clause block and returns its CRef. actInit seeds the
// activity of a learnt clause (ignored otherwise).
func (ca *arena) alloc(lits []cnf.Lit, learnt bool, lbd int, actInit float64) CRef {
	if len(lits) > maxClauseSize {
		panic("sat: clause too large for the arena header")
	}
	if uint64(len(ca.store))+uint64(len(lits))+2 >= uint64(crefBin) {
		panic("sat: clause arena exhausted")
	}
	if lbd > maxLBD {
		lbd = maxLBD
	}
	c := CRef(len(ca.store))
	hdr := uint32(len(lits))<<hdrSizeShift | uint32(lbd)<<hdrLBDShift
	if learnt {
		hdr |= hdrLearnt
	}
	ca.store = append(ca.store, hdr)
	if learnt {
		var ord uint32
		if n := len(ca.freeActs); n > 0 {
			ord = ca.freeActs[n-1]
			ca.freeActs = ca.freeActs[:n-1]
			ca.act[ord] = actInit
		} else {
			ord = uint32(len(ca.act))
			ca.act = append(ca.act, actInit)
		}
		ca.store = append(ca.store, ord)
	}
	for _, l := range lits {
		ca.store = append(ca.store, uint32(l))
	}
	return c
}

func (ca *arena) deleted(c CRef) bool { return ca.store[c]&hdrDeleted != 0 }
func (ca *arena) learnt(c CRef) bool  { return ca.store[c]&hdrLearnt != 0 }
func (ca *arena) marked(c CRef) bool  { return ca.store[c]&hdrMark != 0 }
func (ca *arena) mark(c CRef)         { ca.store[c] |= hdrMark }
func (ca *arena) unmark(c CRef)       { ca.store[c] &^= hdrMark }

func (ca *arena) size(c CRef) int { return int(ca.store[c] >> hdrSizeShift) }
func (ca *arena) lbd(c CRef) int {
	return int(ca.store[c] >> hdrLBDShift & hdrLBDMask)
}

// litBase returns the store index of the clause's first literal.
func (ca *arena) litBase(c CRef) int {
	return int(c) + 1 + int(ca.store[c]>>1&1)
}

// lit returns the k-th literal of the clause.
func (ca *arena) lit(c CRef, k int) cnf.Lit {
	return cnf.Lit(ca.store[ca.litBase(c)+k])
}

// appendLits appends the clause's literals to buf (scratch
// materialization for conflict analysis, which works on []cnf.Lit).
func (ca *arena) appendLits(buf []cnf.Lit, c CRef) []cnf.Lit {
	b := ca.litBase(c)
	for _, w := range ca.store[b : b+ca.size(c)] {
		buf = append(buf, cnf.Lit(w))
	}
	return buf
}

// activity returns the learnt clause's activity from the side slice.
func (ca *arena) activity(c CRef) float64 { return ca.act[ca.store[c+1]] }

// blockLen returns the block's total word count (header + ordinal +
// literals). Valid only while the clause is not relocated.
func (ca *arena) blockLen(c CRef) int {
	h := ca.store[c]
	return 1 + int(h>>1&1) + int(h>>hdrSizeShift)
}

// del tombstones the block: the header's deleted bit is set, the space
// is accounted as wasted, and a learnt's activity ordinal returns to
// the free list. The block itself stays readable (propagation may
// still visit stale watchers) until a compaction reclaims it.
func (ca *arena) del(c CRef) {
	h := ca.store[c]
	if h&hdrDeleted != 0 {
		return
	}
	ca.store[c] = h | hdrDeleted
	ca.wasted += ca.blockLen(c)
	if h&hdrLearnt != 0 {
		ca.freeActs = append(ca.freeActs, ca.store[c+1])
	}
}
