package sat

import "unigen/internal/cnf"

// Enumerate finds the models of the clauses under assumptions that are
// distinct on the solver's Config.PriorityVars, in one search. After
// each model it calls model, which may read it with Model and
// ModelValue and must call no other method of the solver. While model
// returns true, Enumerate blocks the model with a clause guarded by
// block (see blockModel) and goes on from the current trail, instead of
// re-propagating the assumptions and every decision from level 0 as a
// Solve per model would.
//
// block must be an unreleased selector whose literal is one of the
// assumptions, so the assumption prefix stays fixed for the whole
// enumeration. It may guard the cell's other constraints too, as a
// session's one selector per call guards its hash rows. block may be
// nil when model never returns true, as in Solve. Each model's
// search has the per-Solve conflict and propagation budgets, counted
// from the previous model. Enumerate returns Unsat once no further
// model exists, Unknown when a search runs out of budget or the
// interrupt flag is raised, and Sat when model returned false. Every
// return is at decision level 0, so the other methods keep their
// level-0 precondition.
func (s *Solver) Enumerate(block *Selector, assumptions []cnf.Lit, model func() bool) Status {
	if !s.ok {
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
		s.blockModel(block, len(assumptions))
	}
}

// blockModel adds the current model's blocking clause, with block's
// guard a, and backjumps so that the search can go on: every literal
// of the clause is false on the trail.
//
// The clause is a ∨ ¬d₁ ∨ … ∨ ¬dₖ over the decisions dᵢ above the
// assumption levels 1..prefix, up to the first decision that is not a
// priority variable, as AllSAT solvers block a model (Toda and Soh, ACM
// JEA 2016). The search branches on every unassigned priority variable
// before any other, so by then the assumptions and d₁..dₖ imply every
// priority variable's value. A model of the cell therefore agrees with
// every dᵢ exactly when its projection on the priority variables is the
// current one: the clause excludes those models and no other.
//
// A clause reduced to its guard goes to block at level 0, which fixes
// a true, so the next search fails on the assumption ¬a (block's
// literal) and returns Unsat. Otherwise each dᵢ is alone at its
// level, so the solver backjumps to the level of the clause's
// next-highest literal, ¬dₖ₋₁ or the guard, and asserts ¬dₖ with the
// clause as its reason: no conflict is analysed and no clause is
// learnt.
func (s *Solver) blockModel(block *Selector, prefix int) {
	c := append(s.blockBuf[:0], block.act.Not())
	for lvl := prefix; lvl < s.decisionLevel(); lvl++ {
		d := s.trail[s.trailLim[lvl]]
		if !s.priority[d.Var()] {
			break
		}
		c = append(c, d.Not())
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
	s.cancelUntil(s.level[c[1].Var()])
	cr := s.attachGuarded(c)
	s.uncheckedEnqueue(c[0], reason{tag: reasonClause, ref: cr})
}
