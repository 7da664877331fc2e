package counter

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// ApproxMCOptions configures the approximate counter.
type ApproxMCOptions struct {
	// Epsilon is the tolerance: the estimate is within a (1+ε) factor of
	// |R_F| with probability at least 1-δ. UniGen invokes ApproxMC with
	// ε = 0.8.
	Epsilon float64
	// Delta is the error probability; UniGen uses δ = 0.2
	// ("confidence of 0.8" in the paper's wording).
	Delta float64
	// SamplingSet projects counting onto these variables; empty means
	// all variables.
	SamplingSet []cnf.Var
	// Solver configures the underlying BSAT calls.
	Solver sat.Config
	// MaxHashRounds caps the number of rounds t (67 at δ = 0.2) when
	// > 0. Provided for benchmarks and tests; leaving it 0 keeps the
	// (ε, δ) guarantee.
	MaxHashRounds int
}

// ApproxMCResult reports the estimate and diagnostics.
type ApproxMCResult struct {
	// Count is the median estimate of |R_F↓S|.
	Count *big.Int
	// Exact is true when the base call found fewer than thresh
	// witnesses, making Count exact rather than approximate.
	Exact bool
	// Rounds is the number of ApproxMC2Core rounds that returned an
	// estimate.
	Rounds int
	// TotalXORRows is the number of XOR rows installed across every
	// cell probe (a probe of cell i installs i rows): a
	// machine-independent work measure.
	TotalXORRows int
	// BSATCalls is the number of bounded-enumeration calls made, the
	// base call included.
	BSATCalls int
}

// threshAMC computes ApproxMC2's cell-size threshold
// ⌈1 + 9.84·(1 + ε/(1+ε))·(1 + 1/ε)²⌉: a cell is small when it holds
// fewer witnesses than this.
func threshAMC(epsilon float64) int {
	return int(math.Ceil(1 + 9.84*(1+epsilon/(1+epsilon))*(1+1/epsilon)*(1+1/epsilon)))
}

// iterAMC computes ApproxMC2's round count for confidence 1-δ:
// ⌈17·log₂(3/δ)⌉.
func iterAMC(delta float64) int {
	return int(math.Ceil(17 * math.Log2(3/delta)))
}

// ApproxMC estimates |R_F↓S| within tolerance ε with confidence 1-δ by
// ApproxMC2 (Chakraborty, Meel and Vardi, IJCAI 2016): each round
// partitions the witness space with a nested family of random XOR
// hashes, finds the fewest rows that make a random cell small,
// and scales that cell's size by the number of cells; the result is
// the median across rounds.
func ApproxMC(f *cnf.Formula, rng *randx.RNG, opts ApproxMCOptions) (ApproxMCResult, error) {
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = f.SamplingVars()
	}
	opts.SamplingSet = vars

	// One incremental BSAT session serves the base call and every cell
	// probe of every round: the formula is ingested once and learned
	// clauses amortize across the whole search.
	sess := bsat.NewSession(f, bsat.Options{SamplingSet: vars, Solver: opts.Solver})
	return ApproxMCSession(sess, rng, opts)
}

// ApproxMCSession runs ApproxMC2 on a caller-supplied session instead
// of building one. This is the conditioned-counting entry used by
// delta requests: a pooled session carrying standing assumption
// literals (bsat.Session.SetAssumptions) makes this count |R_{F∧A}↓S| —
// and because every cell probe is an exact bounded enumeration, the
// estimates (and hence the derived hash width q) are identical to a
// cold ApproxMC run over the conjoined formula at the same RNG,
// regardless of the session's accumulated solver state.
//
// The algorithm is ApproxMC2's Algorithms 1–2 with a galloping search
// in place of LogSATSearch. Every count, the base call's included, is
// a Count(thresh, …), so a count below thresh is exact. Each round
// draws one hash of |S|−1 rows and estimates 2^i times the size of the
// smallest-i cell holding fewer than thresh witnesses; it fails when
// no i < |S| qualifies or that cell is empty. The cells are nested and
// every probe is exact, so the search finds the cell a linear scan
// over i = 1, 2, … would, wherever it starts: it starts from the
// previous successful round's i.
func ApproxMCSession(sess *bsat.Session, rng *randx.RNG, opts ApproxMCOptions) (ApproxMCResult, error) {
	if opts.Epsilon <= 0 {
		return ApproxMCResult{}, fmt.Errorf("counter: epsilon must be positive, got %v", opts.Epsilon)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return ApproxMCResult{}, fmt.Errorf("counter: delta must be in (0,1), got %v", opts.Delta)
	}
	vars := opts.SamplingSet
	if len(vars) == 0 {
		vars = sess.SamplingSet()
	}
	thresh := threshAMC(opts.Epsilon)
	t := iterAMC(opts.Delta)
	if opts.MaxHashRounds > 0 && opts.MaxHashRounds < t {
		t = opts.MaxHashRounds
	}

	// Quick exit: if |R_F↓S| < thresh the count is exact.
	n, res := sess.Count(thresh, nil)
	if res.BudgetExceeded {
		return ApproxMCResult{}, fmt.Errorf("counter: BSAT budget exhausted in ApproxMC base call")
	}
	if n < thresh {
		return ApproxMCResult{Count: big.NewInt(int64(n)), Exact: true, Rounds: 1, BSATCalls: 1}, nil
	}

	var estimates []*big.Int
	out := ApproxMCResult{BSATCalls: 1}
	prev := 1 // ApproxMC2's first round starts from 2 cells
	for round := 0; round < t; round++ {
		c := &cells{sess: sess, h: hashfam.Draw(rng, vars, max(len(vars)-1, 0)), thresh: thresh}
		i, cnt, err := c.search(prev)
		out.BSATCalls += c.calls
		out.TotalXORRows += c.rows
		if err != nil {
			return ApproxMCResult{}, err
		}
		if i > 0 && cnt > 0 {
			estimates = append(estimates, new(big.Int).Lsh(big.NewInt(int64(cnt)), uint(i)))
			prev = i
		}
	}
	if len(estimates) == 0 {
		return ApproxMCResult{}, fmt.Errorf("counter: every ApproxMC round failed")
	}
	sort.Slice(estimates, func(i, j int) bool { return estimates[i].Cmp(estimates[j]) < 0 })
	out.Count = estimates[len(estimates)/2]
	out.Rounds = len(estimates)
	return out, nil
}

// cells probes the nested cells of one round's hash h on the session:
// cell i conjoins h's first i rows. It tallies the BSAT calls made and
// the XOR rows installed.
type cells struct {
	sess   *bsat.Session
	h      *hashfam.Hash
	thresh int

	calls, rows int
}

// count returns the size of cell i, capped at thresh.
func (c *cells) count(i int) (int, error) {
	n, res := c.sess.Count(c.thresh, &hashfam.Hash{Vars: c.h.Vars, Rows: c.h.Rows[:i]})
	c.calls++
	c.rows += i
	if res.BudgetExceeded {
		return 0, fmt.Errorf("counter: BSAT budget exhausted at %d hash bits", i)
	}
	return n, nil
}

// search returns the smallest i in [1, M] (M = h's row count) whose
// cell holds fewer than thresh witnesses, with that cell's size, or
// i = 0 when cell M is not small. Cell 0 is known to be big (the base
// call). The search probes start (clamped to [1, M]), then gallops away
// from it at offsets 1, 2, 4, … in the direction the probes point
// until it has seen a big and a small cell, then bisects between the
// nearest two. Each probe lands strictly between the closest big and
// small cells seen so far, so no cell is probed twice and the
// boundary cell's size is the one its probe returned.
func (c *cells) search(start int) (int, int, error) {
	top := len(c.h.Rows)
	lo, hi, hiN := 0, top+1, 0 // cell lo is big; cell hi is small (top+1: none seen yet) and holds hiN
	s := min(max(start, 1), top)
	m := s
	for step := 1; hi-lo > 1; step *= 2 {
		n, err := c.count(m)
		if err != nil {
			return 0, 0, err
		}
		if n >= c.thresh {
			lo = m
		} else {
			hi, hiN = m, n
		}
		switch {
		case hi > top: // no small cell yet: gallop up
			m = min(s+step, top)
		case lo == 0: // no big cell yet: gallop down
			m = max(s-step, 1)
		default:
			m = (lo + hi) / 2
		}
	}
	if hi > top {
		return 0, 0, nil
	}
	return hi, hiN, nil
}
