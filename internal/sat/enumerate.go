package sat

import "unigen/internal/cnf"

// Enumerate finds the models of the clauses under assumptions that are
// distinct on vars, in one search. After each model it calls model,
// which may read it with Model and ModelValue and must call no other
// method of the solver. While model returns true, Enumerate blocks the
// model with a clause over vars guarded by block and goes on from the
// current trail, instead of re-propagating the assumptions and every
// decision from level 0 as a Solve per model would.
//
// block must be an unreleased clause selector whose literal is one of
// the assumptions, so the assumption prefix stays fixed for the whole
// enumeration. Each model's search has the per-Solve conflict and
// propagation budgets, counted from the previous model. Enumerate
// returns Unsat once no further model exists, Unknown when a search
// runs out of budget or the interrupt flag is raised, and Sat when
// model returned false. Every return is at decision level 0, so the
// other methods keep their level-0 precondition.
func (s *Solver) Enumerate(block *Selector, vars []cnf.Var, assumptions []cnf.Lit, model func() bool) Status {
	if !s.ok || s.brokenL0 {
		return Unsat
	}
	s.cancelUntil(0)
	for _, a := range assumptions {
		s.growTo(int(a.Var()))
	}
	for {
		if s.interrupted() {
			s.cancelUntil(0)
			return Unknown
		}
		if st := s.solve(assumptions); st != Sat {
			return st
		}
		if !model() {
			s.cancelUntil(0)
			return Sat
		}
		s.blockModel(block, vars)
	}
}

// blockModel adds the current model's blocking clause over vars, with
// block's guard, and backjumps so that the search can go on: every
// literal of the clause is false on the trail. Literals false at level
// 0 are dropped. A clause reduced to its guard goes to block at level
// 0, which fixes ¬a for block's literal a, so the next search fails on
// that assumption and returns Unsat. A clause with one literal at its
// highest level asserts that literal after a backjump to the
// second-highest level; one with several is analysed as a conflict at
// its highest level. The analysis learns a clause and bumps and decays
// activities as a conflict does, but it is not counted in Conflicts,
// the budgets or the restart schedule.
func (s *Solver) blockModel(block *Selector, vars []cnf.Var) {
	c := append(s.blockBuf[:0], block.act.Not())
	for _, v := range vars {
		if s.level[v] > 0 {
			c = append(c, cnf.MkLit(v, s.assigns[v] == lTrue))
		}
	}
	s.blockBuf = c
	if len(c) == 1 {
		s.cancelUntil(0)
		s.AddClauseToSelector(block, nil)
		return
	}
	// Move the two highest-level literals to the watched positions.
	for i := 0; i < 2; i++ {
		top := i
		for j := i + 1; j < len(c); j++ {
			if s.level[c[j].Var()] > s.level[c[top].Var()] {
				top = j
			}
		}
		c[i], c[top] = c[top], c[i]
	}
	hi, second := s.level[c[0].Var()], s.level[c[1].Var()]
	if hi > second {
		s.cancelUntil(second)
		cr := s.attachSelectorClause(block, c)
		s.uncheckedEnqueue(c[0], reason{tag: reasonClause, ref: cr})
		return
	}
	s.cancelUntil(hi)
	cr := s.attachSelectorClause(block, c)
	learnt, btLevel, lbd := s.analyze(conflict{cr: cr})
	s.cancelUntil(btLevel)
	s.recordLearnt(learnt, lbd)
	s.decayActivities()
}
