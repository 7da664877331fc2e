package counter

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/gf2"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// ErrBudget tags a count that stopped because a BSAT call exhausted its
// conflict budget or was interrupted.
var ErrBudget = errors.New("counter: BSAT budget exhausted")

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
	// > 0, voiding the (ε, δ) guarantee. Only core.Options.ApproxMCRounds
	// (kept for the benchmark module's engine-build probe) and this
	// package's tests set it; leaving it 0 keeps the guarantee.
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
	// TotalXORRows is the number of XOR rows installed across the cell
	// probes that called the solver (such a probe of cell i installs i
	// rows): a machine-independent work measure.
	TotalXORRows int
	// BSATCalls is the number of bounded-enumeration calls made: the
	// base call and every probe that called the solver. A probe whose
	// cell the round's earlier probes already showed big makes none.
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
//
// The algorithm is ApproxMC2's Algorithms 1–2 with a galloping search
// in place of LogSATSearch. Every count, the base call's included, is
// a Count(thresh, …), so a count below thresh is exact. Each round
// draws one hash of |S|−1 rows and estimates 2^i times the size of the
// smallest-i cell holding fewer than thresh witnesses; it fails when
// no i < |S| qualifies or that cell is empty. The cells are nested and
// every probe is exact, so the search finds the cell a linear scan
// over i = 1, 2, … would, wherever it starts: it starts from the
// previous successful round's i. Each probe starts from the members
// of its cell that the round's earlier probes, and the base call,
// already found (see cells.probe). It is StartApproxMC followed by
// Finish on one fresh session: the run is the loop, and its state
// between two rounds is all a later round depends on. It keeps to one
// session, so its time is one core's.
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
	run, err := StartApproxMC(sess, rng, opts, nil)
	if err != nil {
		return ApproxMCResult{}, err
	}
	return run.Finish(sess)
}

// ApproxMCState is an ApproxMC2 run between two rounds: everything the
// rounds still to come depend on besides the options. Each round draws
// its hash from the RNG alone and its search start is the last
// successful round's i, so a run stopped after any round and resumed
// from its state, on any session over the same formula, returns the
// estimate the uninterrupted run returns.
type ApproxMCState struct {
	// RNG is the generator state the next round draws its hash from;
	// randx.New(RNG) continues the stream.
	RNG uint64
	// Start is where the next round's search starts: the last
	// successful round's i, 1 before any.
	Start int
	// Left is the number of rounds still to run.
	Left int
	// Estimates holds the successful rounds' estimates, ascending.
	Estimates []*big.Int
}

// ApproxMCRun is one ApproxMC2 run that its caller drives through
// Rounds, with a stop check after each round: ApproxMC runs every
// round, core's setup stops as soon as no remaining round can change
// what it needs from the estimate. After an error the run is spent.
// Not safe for concurrent use.
type ApproxMCRun struct {
	rng         *randx.RNG
	vars        []cnf.Var
	thresh      int
	start, left int
	ests        []*big.Int // ascending
	exact       bool
	calls, rows int      // BSAT calls and XOR rows this run made
	base        []uint64 // the base call's members, packed over vars; none on a resumed run
	fl          []flight // one per session of the last Rounds call; their member buffers outlive the rounds
}

// flight is one round on one session: the generator state before its
// hash draw, where its search starts, and what the search returned.
type flight struct {
	c        cells
	rng      uint64
	start    int
	i, n     int
	err      error
	panicked any           // what the round's goroutine recovered; nil when its search returned
	done     chan struct{} // closed when the round's goroutine ends; nil for a round run inline
}

// search runs the round's search. On a goroutine of its own (done
// set) it recovers a panic into f.panicked and closes done.
func (f *flight) search() {
	if f.done != nil {
		defer close(f.done)
		defer func() { f.panicked = recover() }()
	}
	f.i, f.n, f.err = f.c.search(f.start)
}

// wait returns once the round has ended.
func (f *flight) wait() {
	if f.done != nil {
		<-f.done
	}
}

// StartApproxMC validates opts and makes ApproxMC2's base call on
// sess, returning the run before its first round. A base count below
// thresh is exact and leaves no round to run. The run draws its hashes
// from rng, which it advances.
//
// known (nil: none) holds witnesses of the formula already found,
// pairwise distinct on opts.SamplingSet: the base call counts them
// without a BSAT call and enumerates only the rest, up to thresh. Its
// count is the one it makes from nothing, so only the base call's
// member list, which no outcome reads, depends on known.
func StartApproxMC(sess *bsat.Session, rng *randx.RNG, opts ApproxMCOptions, known []cnf.Assignment) (*ApproxMCRun, error) {
	if opts.Epsilon <= 0 {
		return nil, fmt.Errorf("counter: epsilon must be positive, got %v", opts.Epsilon)
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("counter: delta must be in (0,1), got %v", opts.Delta)
	}
	if len(opts.SamplingSet) == 0 {
		opts.SamplingSet = sess.SamplingSet()
	}
	t := iterAMC(opts.Delta)
	if opts.MaxHashRounds > 0 && opts.MaxHashRounds < t {
		t = opts.MaxHashRounds
	}
	r := &ApproxMCRun{rng: rng, vars: opts.SamplingSet, thresh: threshAMC(opts.Epsilon), start: 1, left: t}
	// Quick exit: if |R_F↓S| < thresh the count is exact. Otherwise the
	// members found are known members of every round's cell 0.
	base := bsat.Members{Vars: r.vars}
	for _, a := range known {
		base.Add(a)
	}
	if len(known) < r.thresh {
		r.calls = 1
	}
	n, res := sess.Count(r.thresh, nil, &base)
	if res.BudgetExceeded {
		return nil, fmt.Errorf("%w in ApproxMC base call", ErrBudget)
	}
	if n < r.thresh {
		r.ests, r.left, r.exact = []*big.Int{big.NewInt(int64(n))}, 0, true
	}
	r.base = base.List
	return r, nil
}

// ResumeApproxMC continues a run from its state. opts must be the
// options the run started with, its SamplingSet included. The resumed
// run's BSATCalls and TotalXORRows count only the calls it makes. It
// holds none of the base call's members, so its probes start from
// what their own round found.
func ResumeApproxMC(st ApproxMCState, opts ApproxMCOptions) *ApproxMCRun {
	return &ApproxMCRun{
		rng:    randx.New(st.RNG),
		vars:   opts.SamplingSet,
		thresh: threshAMC(opts.Epsilon),
		start:  st.Start,
		left:   st.Left,
		ests:   slices.Clone(st.Estimates),
	}
}

// State returns the run's state; the estimates are shared, not copied,
// and must not be modified.
func (r *ApproxMCRun) State() ApproxMCState {
	return ApproxMCState{RNG: r.rng.State(), Start: r.start, Left: r.left, Estimates: r.ests}
}

// Left returns the number of rounds still to run.
func (r *ApproxMCRun) Left() int { return r.left }

// Rounds runs the rounds left on the distinct sessions ss, up to W =
// min(len(ss), Left()) of them at once, until stop (nil: never),
// called after each round, returns true. The hashes are drawn on the
// caller's goroutine in round order. Round j of the call runs on
// ss[j mod W] and its search starts from the last successful i among
// the rounds up to j−W, the previous round's at W = 1. Results fold
// into the run strictly in round order, each before stop sees it, and
// every search returns the same (i, count) from any start, so the
// run's state after each fold, and so what stop decides, is the
// one-session run's at any W; only the BSAT calls move with the
// starts. At a stop the rounds still in flight, at most W−1, are
// awaited and dropped: their hash draws are undone, and only their
// BSAT calls and XOR rows count.
//
// At W = 1 the rounds run on the caller's goroutine and Rounds starts
// no goroutine; otherwise each round runs on a goroutine of its own.
// Rounds returns only when every round it started has ended. An error
// ends the run with the first round's error in round order; a panic in
// a round is raised again on the caller's goroutine, the first in
// round order.
func (r *ApproxMCRun) Rounds(ss []*bsat.Session, stop func() bool) error {
	if r.left > 0 && len(ss) == 0 {
		return errors.New("counter: no session to run the ApproxMC rounds on")
	}
	w := min(len(ss), r.left)
	for len(r.fl) < w {
		r.fl = append(r.fl, flight{})
	}
	fl, total, next := r.fl[:w], r.left, 0
	launch := func() {
		f := &fl[next%w]
		f.rng, f.start, f.err, f.panicked, f.done = r.rng.State(), r.start, nil, nil, nil
		f.c.reset(ss[next%w], hashfam.Draw(r.rng, r.vars, max(len(r.vars)-1, 0)), r.thresh, r.base)
		next++
		if w == 1 {
			f.search()
			return
		}
		f.done = make(chan struct{})
		go f.search()
	}
	// end awaits the rounds after round j, drops them, and raises the
	// first panic from round j on.
	end := func(j int, err error) error {
		for k := j + 1; k < next; k++ {
			f := &fl[k%w]
			f.wait()
			r.calls += f.c.calls
			r.rows += f.c.rows
		}
		if j+1 < next {
			*r.rng = *randx.New(fl[(j+1)%w].rng)
		}
		for k := j; k < next; k++ {
			if p := fl[k%w].panicked; p != nil {
				panic(p)
			}
		}
		return err
	}
	for next < w {
		launch()
	}
	for j := 0; j < next; j++ {
		f := &fl[j%w]
		f.wait()
		r.calls += f.c.calls
		r.rows += f.c.rows
		if f.err != nil || f.panicked != nil {
			return end(j, f.err)
		}
		r.left--
		if f.i > 0 && f.n > 0 {
			e := new(big.Int).Lsh(big.NewInt(int64(f.n)), uint(f.i))
			k, _ := slices.BinarySearchFunc(r.ests, e, (*big.Int).Cmp)
			r.ests = slices.Insert(r.ests, k, e)
			r.start = f.i
		}
		if stop != nil && stop() {
			return end(j, nil)
		}
		if next < total {
			launch()
		}
	}
	return nil
}

// MedianRange returns the lowest and the highest median the rounds
// left can still produce, whichever of them fail and whatever the
// others return. A round returns at least 2 (one witness in cell 1)
// and at most (thresh−1)·2^(|S|−1); so with m estimates e[0..m−1] and
// r rounds left the extremes are e[⌊(m+r)/2⌋−r] and e[⌊(m+r)/2⌋], an
// index below 0 standing for 2 and one at or past m for the largest
// estimate. With no round left both are the median. ok is false while
// no round has returned an estimate: the run can still fail outright.
func (r *ApproxMCRun) MedianRange() (lo, hi *big.Int, ok bool) {
	if len(r.ests) == 0 {
		return nil, nil, false
	}
	mid := (len(r.ests) + r.left) / 2
	return r.estimate(mid - r.left), r.estimate(mid), true
}

// estimate returns e[k] of MedianRange, with its bounds past the ends.
func (r *ApproxMCRun) estimate(k int) *big.Int {
	switch {
	case k < 0:
		return big.NewInt(2)
	case k >= len(r.ests):
		return new(big.Int).Lsh(big.NewInt(int64(r.thresh-1)), uint(max(len(r.vars)-1, 0)))
	}
	return r.ests[k]
}

// Finish runs the rounds left on the sessions ss (Rounds with no stop)
// and returns the median estimate. On an error the result holds no
// count, only the BSAT calls and XOR rows spent before it.
func (r *ApproxMCRun) Finish(ss ...*bsat.Session) (ApproxMCResult, error) {
	err := r.Rounds(ss, nil)
	out := ApproxMCResult{Exact: r.exact, TotalXORRows: r.rows, BSATCalls: r.calls}
	if err != nil {
		return out, err
	}
	if len(r.ests) == 0 {
		return out, fmt.Errorf("counter: every ApproxMC round failed")
	}
	out.Count = r.ests[len(r.ests)/2]
	out.Rounds = len(r.ests)
	return out, nil
}

// cells probes the nested cells of one round's hash h on the session:
// cell i conjoins h's first i rows. It carries the members its probes
// found from one probe to the next, each projected onto h.Vars and
// packed in w words (bsat.Members), and tallies the BSAT calls made and
// the XOR rows installed.
type cells struct {
	sess   *bsat.Session
	h      *hashfam.Hash
	thresh int
	w      int

	// lo holds known members of the closest big cell search has seen
	// (for cell 0 the base call's, none on a resumed run); hi holds
	// every member of the closest small cell (none while no small cell
	// is known); next is the buffer the next probe fills. A probe's
	// list replaces lo's or hi's, and the list it replaces becomes next,
	// so no buffer is allocated once each has grown to size.
	lo, hi, next []uint64

	calls, rows int
}

// reset readies c for a round of hash h on sess whose cell 0 holds the
// packed members base, and zeroes its tallies. base is copied.
func (c *cells) reset(sess *bsat.Session, h *hashfam.Hash, thresh int, base []uint64) {
	c.sess, c.h, c.thresh, c.w = sess, h, thresh, gf2.Words(len(h.Vars))
	c.lo = append(c.lo[:0], base...)
	c.hi, c.next = c.hi[:0], c.next[:0]
	c.calls, c.rows = 0, 0
}

// in reports whether the packed member x satisfies rows [a, b) of h.
func (c *cells) in(x []uint64, a, b int) bool {
	rows := hashfam.Hash{Rows: c.h.Rows[a:b]}
	return rows.Holds(x)
}

// probe returns the size of cell m, capped at thresh, where
// lo < m < hi and cell lo is big, cell hi small (hi past the last row:
// no small cell known). The cells are nested, so every member of cell
// hi lies in cell m, and so does each member of cell lo that satisfies
// rows lo+1..m; those also in cell hi are already in hi's list. When
// that makes thresh known members the cell is big with no BSAT call.
// Otherwise Count blocks the known members and enumerates only the
// rest, so a small count is still exact. The probe's list then
// replaces lo's (big) or hi's (small).
func (c *cells) probe(m, lo, hi int) (int, error) {
	top := len(c.h.Rows)
	known := append(c.next[:0], c.hi...)
	for k := 0; k < len(c.lo); k += c.w {
		if x := c.lo[k : k+c.w]; c.in(x, lo, m) && (hi > top || !c.in(x, m, hi)) {
			known = append(known, x...)
		}
	}
	mem := bsat.Members{Vars: c.h.Vars, List: known}
	n := mem.Len()
	if n < c.thresh {
		var res bsat.Result
		n, res = c.sess.Count(c.thresh, &hashfam.Hash{Vars: c.h.Vars, Rows: c.h.Rows[:m]}, &mem)
		c.calls++
		c.rows += m
		if res.BudgetExceeded {
			return 0, fmt.Errorf("%w at %d hash bits", ErrBudget, m)
		}
	}
	if n >= c.thresh {
		c.lo, c.next = mem.List, c.lo
	} else {
		c.hi, c.next = mem.List, c.hi
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
		n, err := c.probe(m, lo, hi)
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
