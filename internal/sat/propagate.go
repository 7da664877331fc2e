package sat

import (
	"math/bits"

	"unigen/internal/cnf"
	"unigen/internal/tally"
)

// propagate performs unit propagation (CNF watches, then XOR watches)
// for every literal on the trail past qhead. It returns the conflict
// (an arena CRef for long CNF clauses; materialized literals for
// binary and XOR conflicts), or no conflict. The materialization means
// conflict analysis treats all three sources uniformly.
func (s *Solver) propagate() conflict {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats[tally.Propagations]++
		if confl := s.propagateClauses(p); !confl.none() {
			return confl
		}
		if confl := s.propagateXORs(p.Var()); !confl.none() {
			return confl
		}
	}
	return noConflict()
}

// propagateClauses visits every clause watching ¬p after p became true.
// Long clauses are walked in the arena (header check, inline literal
// swap, watch replacement scan over contiguous words); binary clauses
// never leave the watcher — the blocker is the whole remaining clause.
func (s *Solver) propagateClauses(p cnf.Lit) conflict {
	ws := s.watches[p]
	store := s.ca.store
	i, j := 0, 0
	for i < len(ws) {
		w := ws[i]
		blocker := w.blocker()
		if s.isTrue(blocker) {
			ws[j] = w
			i++
			j++
			continue
		}
		if w.cr == crefBin {
			// Inlined binary clause {blocker, ¬p}: blocker is false or
			// unassigned here.
			ws[j] = w
			i++
			j++
			if s.isFalse(blocker) {
				for ; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				s.conflBuf = append(s.conflBuf[:0], blocker, p.Not())
				return conflict{cr: crefUndef, lits: s.conflBuf}
			}
			s.uncheckedEnqueue(blocker, reason{tag: reasonBinary, ref: uint32(p.Not())})
			continue
		}
		cr := w.cr
		h := store[cr]
		if h&hdrDeleted != 0 {
			i++
			continue
		}
		base := int(cr) + 1 + int(h>>1&1)
		size := int(h >> hdrSizeShift)
		falseLit := p.Not()
		if cnf.Lit(store[base]) == falseLit {
			store[base], store[base+1] = store[base+1], store[base]
		}
		first := cnf.Lit(store[base])
		if first != blocker && s.isTrue(first) {
			ws[j] = watcher{cr: cr, blk: uint32(first)}
			i++
			j++
			continue
		}
		found := false
		for k := 2; k < size; k++ {
			if lk := cnf.Lit(store[base+k]); !s.isFalse(lk) {
				store[base+1], store[base+k] = store[base+k], store[base+1]
				nw := lk.Not()
				s.watches[nw] = append(s.watches[nw], watcher{cr: cr, blk: uint32(first)})
				found = true
				break
			}
		}
		if found {
			i++ // clause moved to another watch list
			continue
		}
		// Clause is unit or conflicting.
		ws[j] = watcher{cr: cr, blk: uint32(first)}
		i++
		j++
		if s.isFalse(first) {
			for ; i < len(ws); i++ {
				ws[j] = ws[i]
				j++
			}
			s.watches[p] = ws[:j]
			s.qhead = len(s.trail)
			return conflict{cr: cr}
		}
		s.uncheckedEnqueue(first, reason{tag: reasonClause, ref: cr})
	}
	s.watches[p] = ws[:j]
	return noConflict()
}

// propagateXORs visits every XOR clause watching variable v after v was
// assigned (either polarity: parity constraints react to both). Watch
// replacement is a TrailingZeros64 scan over the row's coefficient words
// masked by the unassigned columns, and the parity of the assigned
// variables is one popcount fold against the assigned-true mask — no
// per-variable loop.
func (s *Solver) propagateXORs(v cnf.Var) conflict {
	occ := s.occXor[v]
	vcol := int(s.xcolOf[v])
	i, j := 0, 0
	for i < len(occ) {
		xi := occ[i]
		x := &s.xors[xi]
		wi := 0
		if x.w[1] == vcol {
			wi = 1
		}
		otherCol := x.w[1-wi]
		off := int(x.off)
		// Word scan for an unassigned column to move this watch to. v's
		// column is excluded by the assignment mask; the other watch is
		// masked out explicitly. bits is the row's window: word w maps to
		// global word off+w. Single-word rows — every session hash row
		// over a ≤64-column sampling-set+selector band, and most Tseitin
		// parities — take a branch-free specialization.
		var par bool
		if len(x.bits) == 1 {
			b := x.bits[0]
			cand := b &^ s.xAssigned[off] &^ (1 << uint(otherCol&63))
			if cand != 0 {
				nc := off<<6 | bits.TrailingZeros64(cand)
				x.w[wi] = nc
				nv := s.xvarOf[nc]
				s.occXor[nv] = append(s.occXor[nv], xi)
				i++ // drop xi from v's occurrence list
				continue
			}
			par = bits.OnesCount64(b&s.xTrue[off])&1 == 1
		} else {
			bw := x.bits
			n := len(bw)
			assigned := s.xAssigned[off : off+n]
			moved := false
			otherW := otherCol>>6 - off
			w := 0
			// 4-wide block skip: on a long mostly-assigned row nearly every
			// word has no unassigned candidate, so reject four per iteration
			// (the other watch's bit can only make this break early, never
			// skip its word; the per-word loop below re-checks with it
			// masked out).
			for w+4 <= n {
				if bw[w]&^assigned[w]|bw[w+1]&^assigned[w+1]|
					bw[w+2]&^assigned[w+2]|bw[w+3]&^assigned[w+3] != 0 {
					break
				}
				w += 4
			}
			for ; w < n; w++ {
				cand := bw[w] &^ assigned[w]
				if w == otherW {
					cand &^= 1 << uint(otherCol&63)
				}
				if cand != 0 {
					nc := (off+w)<<6 | bits.TrailingZeros64(cand)
					x.w[wi] = nc
					nv := s.xvarOf[nc]
					s.occXor[nv] = append(s.occXor[nv], xi)
					moved = true
					break
				}
			}
			if moved {
				i++ // drop xi from v's occurrence list
				continue
			}
			// No replacement: every variable except possibly `other` is
			// assigned. Fold the parity of the assigned variables (level-0
			// ones included — they stay in packed rows) by XOR-accumulating
			// the masked words and taking one popcount at the end:
			// parity(popcnt(a)+popcnt(b)) == parity(popcnt(a^b)).
			trueMask := s.xTrue[off : off+n]
			var acc uint64
			for w = 0; w+4 <= n; w += 4 {
				acc ^= bw[w]&trueMask[w] ^ bw[w+1]&trueMask[w+1] ^
					bw[w+2]&trueMask[w+2] ^ bw[w+3]&trueMask[w+3]
			}
			for ; w < n; w++ {
				acc ^= bw[w] & trueMask[w]
			}
			par = bits.OnesCount64(acc)&1 == 1
		}
		occ[j] = xi
		j++
		i++
		other := s.xvarOf[otherCol]
		if s.valueVar(other) == lUndef {
			need := x.rhs != par
			if x.sel != 0 {
				if s.decisionLevel() == 0 {
					// A removable XOR is writing to the permanent trail;
					// the level-0 state no longer follows from the base
					// formula alone. Sound until the row is released.
					s.taintL0 = true
				} else if other == x.sel && need {
					// The row is absorbing its own guard (guard = true,
					// the deactivating polarity). Learned clauses that
					// later resolve through this row while the guard
					// holds that value contain the guard's NEGATED
					// activation-complement, which Release's polarity
					// fix would strengthen rather than satisfy. Sound
					// for this call; rebuild before the next.
					s.taintL0 = true
				}
			}
			s.uncheckedEnqueue(cnf.MkLit(other, !need), reason{tag: reasonXOR, ref: uint32(xi)})
		} else if par != x.rhs {
			// `other` is assigned too, so par covers the whole row.
			return s.xorConflict(occ, j, i, v, xi)
		}
	}
	s.occXor[v] = occ[:j]
	return noConflict()
}

// xorConflict finalizes the occurrence list compaction and returns the
// conflicting XOR materialized as an all-false clause in the conflict
// scratch buffer.
func (s *Solver) xorConflict(occ []int32, j, i int, v cnf.Var, xi int32) conflict {
	for ; i < len(occ); i++ {
		occ[j] = occ[i]
		j++
	}
	s.occXor[v] = occ[:j]
	s.qhead = len(s.trail)
	s.conflBuf = s.xorFalseClause(s.conflBuf[:0], xi)
	return conflict{cr: crefUndef, lits: s.conflBuf}
}

// xorFalseClause renders XOR clause xi, which has just conflicted, as
// a CNF clause of false literals appended to buf (the conflict scratch
// buffer). Variables fixed at level 0 may appear (rows keep them); they
// render as false literals that conflict analysis skips by level. Every
// row variable is assigned, so polarities come straight from the xTrue
// mask word instead of a random-access value lookup per literal.
func (s *Solver) xorFalseClause(buf []cnf.Lit, xi int32) []cnf.Lit {
	x := &s.xors[xi]
	off := int(x.off)
	for w, b := range x.bits {
		tw := s.xTrue[off+w]
		for b != 0 {
			k := b & (-b)
			c := (off+w)<<6 | bits.TrailingZeros64(b)
			b &^= k
			buf = append(buf, cnf.MkLit(s.xvarOf[c], tw&k != 0))
		}
	}
	return buf
}

// reasonLitsFor returns the clause that implied variable v, with the
// implied literal first. It must only be called for variables implied
// by an arena clause or an inlined binary; XOR reasons never come here,
// because analyze and litRedundant walk the row in place. Both reason
// kinds are materialized into one scratch buffer that is overwritten by
// the next call; conflict analysis consumes each reason before
// requesting the next, so one buffer suffices.
func (s *Solver) reasonLitsFor(v cnf.Var) []cnf.Lit {
	r := s.reasons[v]
	switch r.tag {
	case reasonClause:
		s.reasonBuf = s.ca.appendLits(s.reasonBuf[:0], r.ref)
		return s.reasonBuf
	case reasonBinary:
		s.reasonBuf = append(s.reasonBuf[:0],
			cnf.MkLit(v, s.valueVar(v) == lFalse), cnf.Lit(r.ref))
		return s.reasonBuf
	default:
		panic("sat: reasonLitsFor on a decision variable or an XOR reason")
	}
}
