package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"
	"sync"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/faultpoint"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// ErrFailed is returned by Sample when UniGen reports ⊥: no cell in the
// candidate range {q−3..q} had between loThresh and hiThresh witnesses.
// Theorem 1 bounds the probability of this outcome by 0.38.
var ErrFailed = errors.New("unigen: sampling round failed (⊥)")

// ErrBudget is returned when BSAT repeatedly exhausted its conflict
// budget — the analogue of the paper's 20-hour overall timeout firing.
var ErrBudget = errors.New("unigen: BSAT conflict budget exhausted")

// ErrUnsat is returned when sampling a formula that has no witnesses
// (the setup enumerates such formulas exactly, so this surfaces on the
// first Sample call, not during setup).
var ErrUnsat = errors.New("unigen: formula is unsatisfiable")

// maxRetries bounds how many times lines 14–16 are re-executed for the
// same i after a BSAT budget exhaustion, mirroring the §5 protocol ("we
// repeated the execution of lines 14–16 without incrementing i").
const maxRetries = 10

// Options configures a Setup.
type Options struct {
	// Epsilon is the uniformity tolerance; must exceed 1.71. The
	// DAC'14 experiments use ε = 6.
	Epsilon float64
	// SamplingSet is the set S of sampling variables, intended to be an
	// independent support of the formula. Empty falls back to the
	// formula's own sampling set, then to all variables. Witnesses are
	// projected on S, but hashing runs over the hash set: S minus every
	// variable the rest of S defines (DESIGN §14). A superset of an
	// independent support therefore hashes about as cheaply as a
	// minimal one; Theorem 1 still holds only when S itself is an
	// independent support.
	SamplingSet []cnf.Var
	// Solver configures every BSAT call (conflict budgets stand in for
	// the paper's 2500 s per-call timeout). Its Interrupt reaches the
	// setup's own solver work only: the Setup keeps the rest, and the
	// sessions NewSession builds poll no flag until their owner sets one.
	Solver sat.Config
	// ApproxMCRounds caps the δ-derived round count t = 67 of the
	// setup-time ApproxMC call when > 0. A cap voids line 9's
	// confidence 0.8, the premise of Theorem 1, so no public surface
	// sets it. It stays only because the benchmark module
	// (unibench/layers.go) sets 1 to build engines cheaply; delete it,
	// with counter.ApproxMCOptions.MaxHashRounds, once that module
	// drops the setting.
	ApproxMCRounds int
}

// Stats accumulates observable behaviour of sampling, feeding the
// Table 1/Table 2 columns: one value per row of the tally counter
// table. Stats values are plain data: each worker of a parallel run
// accumulates its own and the results are combined with Merge, so the
// hot path carries no shared mutable counters.
type Stats tally.Vec

// Merge combines two stats values with each row's merge op: counters
// and SetupRounds add; EasyCase, Q and the ArenaBytes gauge take the
// maximum. Every row is an integer (XORLenSum is an exact popcount
// total, not a float), so a merged value is independent of merge order.
func (st Stats) Merge(o Stats) Stats { return Stats(tally.Vec(st).Merge(tally.Vec(o))) }

// Named accessors for the rows Algorithm 1 and the Table 1/2 columns
// read: successful samples, ⊥ outcomes, BSAT calls, hash XOR rows and
// their total length, the ApproxMC rounds the setup ran before q was
// settled, whether |R_F| ≤ hiThresh (sampling needs no hashing), and
// the q of line 10.
func (st Stats) Samples() int64   { return st[tally.Samples] }
func (st Stats) Failures() int64  { return st[tally.Failures] }
func (st Stats) BSATCalls() int64 { return st[tally.BSATCalls] }
func (st Stats) XORRows() int64   { return st[tally.XORRows] }
func (st Stats) XORLenSum() int64 { return st[tally.XORLenSum] }
func (st Stats) SetupRounds() int { return int(st[tally.SetupRounds]) }
func (st Stats) EasyCase() bool   { return st[tally.EasyCase] != 0 }
func (st Stats) Q() int           { return int(st[tally.Q]) }

// AvgXORLen returns the mean XOR-clause length, the "Avg XOR len"
// column of Tables 1 and 2.
func (st Stats) AvgXORLen() float64 {
	if st.XORRows() == 0 {
		return 0
	}
	return float64(st.XORLenSum()) / float64(st.XORRows())
}

// Rounds returns the number of sampling rounds attempted (successes
// plus ⊥ outcomes).
func (st Stats) Rounds() int64 { return st.Samples() + st.Failures() }

// SuccessProb returns the observed success probability, the "Succ Prob"
// column of Tables 1 and 2.
func (st Stats) SuccessProb() float64 {
	if st.Rounds() == 0 {
		return 0
	}
	return float64(st.Samples()) / float64(st.Rounds())
}

// Setup is the outcome of lines 1–11 of Algorithm 1, the once-per-
// formula state of UniGen: κ and pivot, thresholds, the easy-case
// witness list, and otherwise the ApproxMC estimate and the candidate
// range endpoint q. A Setup is safe to share: a parallel engine runs
// NewSetup once and hands the same Setup to every worker, each of which
// pairs it with its own bsat.Session and randx.RNG (solver sessions are
// not thread-safe; the Setup is). A Setup holds no session and no
// interrupt: whoever takes a session from NewSession points it at a
// flag of its own. Everything sampling reads is immutable after
// construction; the one field that changes later, the estimate
// WitnessCount finishes, sits behind a lock.
type Setup struct {
	f    *cnf.Formula
	s    []cnf.Var // declared sampling set: what witnesses are projected on
	h    []cnf.Var // hash set: the ordered subset of s that hashing, blocking and sorting use
	kp   KappaPivot
	opts Options

	easy    []cnf.Assignment // all witnesses when |R_F| ≤ hiThresh (lines 5–7)
	easySet bool             // true when `easy` is authoritative (incl. UNSAT)
	q       int              // line 10

	// The ApproxMC estimate C of line 9. Setup stops the run once q is
	// settled (DESIGN §15): est is C once every round has run, and until
	// then nil, with amc holding the run's state for WitnessCount to
	// finish. countMu guards both.
	countMu sync.Mutex
	est     *big.Int
	amc     counter.ApproxMCState

	base Stats // setup-phase solver work and SetupRounds; zero when decoded
}

// NewSetup runs the once-per-formula phase of UniGen: compute κ and
// pivot (line 1), thresholds (lines 2–3), the hash set (DESIGN §14),
// the easy-case enumeration (lines 4–7), and otherwise the ApproxMC
// estimate and the candidate range endpoint q (lines 9–10). ApproxMC
// runs only until q is settled; WitnessCount runs the rest. Its rounds
// run on up to GOMAXPROCS sessions at once, each pointed at
// opts.Solver.Interrupt; the setup is the same at any number. rng seeds
// ApproxMC and is not advanced. A raised interrupt fails the setup, and
// the Setup does not keep it.
func NewSetup(f *cnf.Formula, rng *randx.RNG, opts Options) (*Setup, error) {
	kp, err := ComputeKappaPivot(opts.Epsilon)
	if err != nil {
		return nil, err
	}
	s := opts.SamplingSet
	if len(s) == 0 {
		s = f.SamplingVars()
	}
	intr := opts.Solver.Interrupt
	opts.Solver.Interrupt = nil
	h, err := hashSet(f, s, intr)
	if err != nil {
		return nil, err
	}
	su := &Setup{f: f, s: s, h: h, kp: kp, opts: opts}
	if err := su.measure(su.newSessions(intr), rng); err != nil {
		return nil, err
	}
	return su, nil
}

// measure runs lines 4–10 of Algorithm 1 on su, whose formula, hash
// set, κ/pivot and options are already set: enumerate up to hiThresh+1
// witnesses on the first session lease returns and, when there are
// more than hiThresh, estimate the count with ApproxMC2 on the same
// session and derive q. The rounds run on it and on up to
// GOMAXPROCS−1 helper sessions leased later, one for each token
// sessionTokens grants.
func (su *Setup) measure(lease func(n int) []*bsat.Session, rng *randx.RNG) error {
	kp := su.kp
	// Lines 4–7: if F has at most hiThresh witnesses, enumerate them
	// once and sample by index forever after.
	sess := lease(1)[0]
	res := sess.Enumerate(kp.HiThresh+1, nil)
	if res.BudgetExceeded {
		return fmt.Errorf("%w (easy-case enumeration)", ErrBudget)
	}
	su.base[tally.BSATCalls]++
	su.base = su.base.Merge(Stats(res.Stats))
	if len(res.Witnesses) <= kp.HiThresh {
		su.easy = res.Witnesses
		sortWitnesses(su.easy, su.h)
		su.easySet = true
		return nil
	}

	// Line 9: C ← ApproxMC(F, 0.8, 0.8-confidence), run only until line
	// 10's q is settled; WitnessCount runs the rest. The run draws from
	// a generator of its own, whose state it persists. The probe's
	// witnesses are distinct on the enumeration session's set, which
	// determines the hash set, so they seed the base call.
	run, err := counter.StartApproxMC(sess, randx.New(rng.State()), su.amcOptions(), res.Witnesses)
	if err != nil {
		return amcErr(err)
	}
	q, settled := su.settled(run)
	if !settled && run.Left() > 0 {
		n, release := sessionTokens(run.Left() - 1)
		defer release()
		err := run.Rounds(append([]*bsat.Session{sess}, lease(n)...), func() bool {
			su.base[tally.SetupRounds]++
			q, settled = su.settled(run)
			return settled
		})
		if err != nil {
			return amcErr(err)
		}
	}
	if run.Left() > 0 {
		su.amc = run.State()
	} else {
		res, err := run.Finish() // no round left: the median
		if err != nil {
			return amcErr(err)
		}
		su.est = res.Count
	}
	su.q = q
	return nil
}

// amcOptions are line 9's ApproxMC parameters: ε′ = 0.8 and δ′ = 0.2
// (confidence 0.8), over the hash set.
func (su *Setup) amcOptions() counter.ApproxMCOptions {
	return counter.ApproxMCOptions{
		Epsilon:       0.8,
		Delta:         0.2,
		SamplingSet:   su.h,
		MaxHashRounds: su.opts.ApproxMCRounds,
	}
}

// amcErr wraps a failed ApproxMC run. A BSAT call that exhausted its
// budget or was interrupted is an ErrBudget, as everywhere else in
// Algorithm 1.
func amcErr(err error) error {
	if errors.Is(err, counter.ErrBudget) {
		return fmt.Errorf("%w (setup ApproxMC): %v", ErrBudget, err)
	}
	return fmt.Errorf("unigen: setup ApproxMC: %w", err)
}

// lineTen is line 10 of Algorithm 1, q ← ⌈log₂ C + log₂ 1.8 − log₂
// pivot⌉, clamped to [1, |H|]. It is monotone in C.
func (su *Setup) lineTen(c *big.Int) int {
	q := int(math.Ceil(bigLog2(c) + math.Log2(1.8) - math.Log2(float64(su.kp.Pivot))))
	return min(max(q, 1), len(su.h))
}

// settled returns line 10's q for run's median and whether q is
// settled: whether line 10 gives it for both the lowest and the highest
// median the rounds left can produce. Line 10 is monotone, so every
// median between them gives the same q, and a run stopped there yields
// the full run's q.
func (su *Setup) settled(run *counter.ApproxMCRun) (int, bool) {
	lo, hi, ok := run.MedianRange()
	if !ok {
		return 0, false
	}
	q := su.lineTen(lo)
	return q, q == su.lineTen(hi)
}

// bigLog2 approximates log₂(x) for a positive big integer.
func bigLog2(x *big.Int) float64 {
	if x.Sign() <= 0 {
		return 0
	}
	bits := x.BitLen()
	if bits <= 53 {
		return math.Log2(float64(x.Int64()))
	}
	// Take the top 53 bits for the mantissa.
	mant := new(big.Int).Rsh(x, uint(bits-53))
	return math.Log2(float64(mant.Int64())) + float64(bits-53)
}

// SetupStats returns the stats of the setup phase alone: the solver
// work of the setup this process ran (none for a decoded one), its
// easy-case flag and q. An engine reports SetupStats().Merge(round
// deltas…).
func (su *Setup) SetupStats() Stats {
	st := su.base
	if su.easySet {
		st[tally.EasyCase] = 1
	}
	st[tally.Q] = int64(su.q)
	return st
}

// SamplingSet returns the declared sampling variables, the set
// witnesses are projected on.
func (su *Setup) SamplingSet() []cnf.Var {
	return append([]cnf.Var(nil), su.s...)
}

// HashSet returns the hash set: the ordered subset of the sampling set
// that hash rows, blocking clauses and the canonical witness order
// range over (DESIGN §14).
func (su *Setup) HashSet() []cnf.Var {
	return append([]cnf.Var(nil), su.h...)
}

// NewSession builds a fresh BSAT session over the setup's formula and
// hash set, with the setup's budgets and no interrupt, for exclusive
// use by one owner, which points it at its own flag
// (bsat.Session.SetInterrupt). It is safe for concurrent use.
func (su *Setup) NewSession() *bsat.Session {
	return bsat.NewSession(su.f, bsat.Options{SamplingSet: su.h, Solver: su.opts.Solver})
}

// sortWitnesses orders witnesses canonically by their projection onto
// s, the setup's hash set. Enumeration order is an artifact of solver history
// (learned clauses, VSIDS activity), so a cell's witness list comes
// back in different orders on different sessions; sorting before the
// uniform index pick makes the chosen witness a function of the cell
// contents and the round's RNG alone. That is the invariant that lets
// a parallel engine run round i on any worker and still return the
// same sample. Projections are unique within a list (blocking clauses
// enforce distinctness on a set that determines the hash set), so the
// order is total.
func sortWitnesses(ws []cnf.Assignment, s []cnf.Var) {
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		for _, v := range s {
			av, bv := a.Get(v), b.Get(v)
			if av != bv {
				return bv // false < true
			}
		}
		return false
	})
}

// SampleRound executes lines 12–22 of Algorithm 1 once against the
// caller's session and RNG, accumulating observable behaviour into st:
// walk i over {q−3..q}, partition R_F with a fresh hash from
// H_xor(|H|, i, 3) over the hash set H, and return a uniformly chosen
// witness of the first cell whose size lands within [loThresh,
// hiThresh]. It returns ErrFailed for the ⊥ outcome.
//
// Each cell starts from the witnesses the round's earlier cells found:
// those the cell's hash holds on are its known members, which the
// session blocks before its search, so it enumerates only the rest
// (DESIGN §15, "Known members of sampling cells"). The list is dropped
// when the round returns.
//
// Given the same RNG state, the outcome is independent of the session's
// history as long as no conflict-budget exhaustion occurs: each cell's
// size up to hiThresh+1 is a function of the formula and its hash, an
// accepted cell's list holds every member, the known ones put back
// beside the ones its search found, and is canonically ordered before
// the index pick, and budget retries redraw only from this round's
// RNG. So the chosen witness's projection onto the sampling set is too.
// This is the determinism contract the parallel engine builds on.
//
// Each cell-search attempt (one EnumerateKnown against a drawn hash at
// cell count 2^i) is recorded as a child span of sp, carrying the
// solver-work delta of that enumeration and its known members. A nil
// sp disarms the tracing: every span call degrades to a nil check.
func (su *Setup) SampleRound(sess *bsat.Session, rng *randx.RNG, st *Stats, sp *obs.Span) (cnf.Assignment, error) {
	_ = faultpoint.Fire(faultpoint.RoundPanic) // chaos: panics when armed
	if su.easySet {
		// Lines 5–7: uniform choice among all witnesses.
		if len(su.easy) == 0 {
			return nil, ErrUnsat
		}
		st[tally.Samples]++
		return su.easy[rng.Intn(len(su.easy))], nil
	}
	kp := su.kp
	// The round's witnesses so far, cell by cell: found[j] holds the
	// models cell search j found, and packed[j] their projections onto
	// H, w words each (as bsat.Members packs them). carried holds the
	// current cell's known members.
	var found [][]cnf.Assignment
	var packed [][]uint64
	var carried []cnf.Assignment
	w := gf2.Words(len(su.h))
	for i := su.q - 3; i <= su.q; i++ {
		m := i
		if m < 1 {
			m = 1
		}
		var n int
		var res bsat.Result
		ok := false
		for retry := 0; retry < maxRetries; retry++ {
			// Lines 14–15: random h and α (α is folded into the XOR
			// right-hand sides by hashfam).
			h := hashfam.Draw(rng, su.h, m)
			st[tally.XORRows] += int64(h.M())
			st[tally.XORLenSum] += int64(h.TotalLen())
			known := bsat.Members{Vars: su.h, List: make([]uint64, 0, (kp.HiThresh+1)*w)}
			carried = carried[:0]
			for j, ms := range found {
				for k, a := range ms {
					if x := packed[j][k*w : (k+1)*w]; h.Holds(x) {
						known.List = append(known.List, x...)
						carried = append(carried, a)
					}
				}
			}
			// Line 16, on the caller's incremental session.
			cell := sp.StartSpan("cell")
			n, res = sess.EnumerateKnown(kp.HiThresh+1, h, &known)
			cell.SetInt("i", int64(i))
			cell.SetInt("xor_rows", int64(h.M()))
			cell.SetInt("witnesses", int64(n))
			cell.SetInt("known", int64(len(carried)))
			cell.SetInt("conflicts", res.Stats[tally.Conflicts])
			cell.SetInt("propagations", res.Stats[tally.Propagations])
			cell.End()
			st[tally.BSATCalls]++
			*st = st.Merge(Stats(res.Stats))
			// The found witnesses' projections follow the known ones in
			// the member list.
			found = append(found, res.Witnesses)
			packed = append(packed, known.List[len(carried)*w:])
			if !res.BudgetExceeded {
				ok = true
				break
			}
			if intr := sess.Interrupt(); intr != nil && intr.Load() {
				// Cancelled, not out of budget: every retry would stop at
				// Solve entry.
				break
			}
			// §5 protocol: on timeout, redo lines 14–16 with the same i.
		}
		if !ok {
			return nil, ErrBudget
		}
		if float64(n) >= kp.LoThresh && n <= kp.HiThresh {
			// Lines 21–22, on the canonical order (see sortWitnesses) of
			// the whole cell: its known members and the ones it found.
			ws := append(carried, res.Witnesses...)
			sortWitnesses(ws, su.h)
			st[tally.Samples]++
			return ws[rng.Intn(n)], nil
		}
	}
	// Lines 18–19.
	st[tally.Failures]++
	return nil, ErrFailed
}
