package sat

import (
	"math/bits"

	"unigen/internal/cnf"
)

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first), the backtrack level, and the LBD
// (number of distinct decision levels in the learned clause).
//
// XOR reasons are walked bit-by-bit in place, never materialized as
// clauses: on hash-heavy workloads a reason row covers half the
// support, and rendering ~|X|/2 literals per resolution step (then
// reading them back once) dominated analysis time.
func (s *Solver) analyze(confl conflict) (learnt []cnf.Lit, btLevel, lbd int) {
	learnt = s.analyzeLearnt[:0] // scratch reused across conflicts
	learnt = append(learnt, 0)   // placeholder for the asserting literal
	pathC := 0
	var p cnf.Lit
	idx := len(s.trail) - 1
	reasonLits := confl.lits
	xorReason := int32(-1) // ≥ 0: walk s.xors[xorReason] in place instead
	if confl.cr != crefUndef {
		// Arena conflict: materialize into the conflict scratch (unused
		// in this case — XOR/binary conflicts arrive pre-materialized).
		s.conflBuf = s.ca.appendLits(s.conflBuf[:0], confl.cr)
		reasonLits = s.conflBuf
		if s.ca.learnt(confl.cr) {
			s.bumpClause(confl.cr)
		}
	}
	toClear := s.analyzeSeen[:0]
	dl := s.decisionLevel()
	for {
		if xorReason >= 0 {
			// In-place row walk: p's own variable is skipped, the rest
			// visit in ascending column order.
			x := &s.xors[xorReason]
			off := int(x.off)
			pv := p.Var()
			for w, b := range x.bits {
				// Level-0 columns render as literals the generic body skips
				// by level; drop whole words of them up front.
				b &^= s.xAssignedL0[off+w]
				tw := s.xTrue[off+w]
				for b != 0 {
					k := b & (-b)
					c := (off+w)<<6 | bits.TrailingZeros64(b)
					b &^= k
					xv := s.xvarOf[c]
					if xv == pv || s.seen[xv] != 0 {
						continue
					}
					s.seen[xv] = 1
					toClear = append(toClear, xv)
					s.bumpVar(xv)
					if s.level[xv] >= dl {
						pathC++
					} else {
						learnt = append(learnt, cnf.MkLit(xv, tw&k != 0))
					}
				}
			}
		} else {
			start := 0
			if p != 0 {
				start = 1 // skip the implied literal itself
			}
			for _, q := range reasonLits[start:] {
				v := q.Var()
				if s.seen[v] == 0 && s.level[v] > 0 {
					s.seen[v] = 1
					toClear = append(toClear, v)
					s.bumpVar(v)
					if s.level[v] >= dl {
						pathC++
					} else {
						learnt = append(learnt, q)
					}
				}
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		pathC--
		if pathC <= 0 {
			break
		}
		r := s.reasons[p.Var()]
		if r.tag == reasonXOR {
			xorReason = int32(r.ref)
			continue
		}
		xorReason = -1
		reasonLits = s.reasonLitsFor(p.Var())
		if r.tag == reasonClause && s.ca.learnt(r.ref) {
			s.bumpClause(r.ref)
		}
	}
	learnt[0] = p.Not()

	// Clause minimization (basic conflict-clause minimization): a literal
	// is redundant if it is implied by other literals of the clause.
	w := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reasons[v].isNone() || !s.litRedundant(learnt[i]) {
			learnt[w] = learnt[i]
			w++
		}
	}
	learnt = learnt[:w]

	// Backtrack level: second-highest level in the clause.
	if len(learnt) == 1 {
		btLevel = 0
	} else {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}

	// LBD: distinct decision levels among the learned literals, counted
	// with a stamped array to avoid a per-conflict map allocation.
	s.lbdStamp++
	for len(s.lbdMark) <= s.decisionLevel() {
		s.lbdMark = append(s.lbdMark, 0)
	}
	for _, l := range learnt {
		lvl := s.level[l.Var()]
		if s.lbdMark[lvl] != s.lbdStamp {
			s.lbdMark[lvl] = s.lbdStamp
			lbd++
		}
	}

	for _, v := range toClear {
		s.seen[v] = 0
	}
	s.analyzeLearnt = learnt[:0]
	s.analyzeSeen = toClear[:0]
	return learnt, btLevel, lbd
}

// litRedundant reports whether literal l is implied by the other
// (seen-marked) literals of the learned clause: every literal of its
// reason is either assigned at level 0 or already marked seen. XOR
// reasons are scanned in place with early exit, without rendering
// ~row-length literals per candidate.
func (s *Solver) litRedundant(l cnf.Lit) bool {
	lv := l.Var()
	if r := s.reasons[lv]; r.tag == reasonXOR {
		x := &s.xors[r.ref]
		off := int(x.off)
		for w, b := range x.bits {
			b &^= s.xAssignedL0[off+w] // level-0 literals are skipped anyway
			for b != 0 {
				c := (off+w)<<6 | bits.TrailingZeros64(b)
				b &= b - 1
				xv := s.xvarOf[c]
				if xv == lv {
					continue
				}
				if s.seen[xv] == 0 {
					return false
				}
			}
		}
		return true
	}
	rl := s.reasonLitsFor(lv)
	for _, q := range rl[1:] {
		v := q.Var()
		if s.level[v] == 0 {
			continue
		}
		if s.seen[v] == 0 {
			return false
		}
	}
	return true
}
