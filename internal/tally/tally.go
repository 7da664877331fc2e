// Package tally is the one counter table every layer of the sampler
// shares. The solver increments a Vec in place, a BSAT call reports the
// Sub of two solver snapshots, a sampling run folds call and round
// results with Merge, the setup codec persists a fixed list of IDs, and
// the service keeps Totals per phase and exports every row that has
// HELP text as a unigen_solver_* metric family. Adding a counter is one
// ID and one Table row.
package tally

import "sync/atomic"

// ID names one counter: an index into Vec and Table.
type ID int

// The counters. Sampling counters come first, then the solver's, then
// the setup phase's.
const (
	Samples      ID = iota // successful sampling rounds
	Failures               // ⊥ rounds
	BSATCalls              // bounded-enumeration (BSAT) calls
	XORRows                // hash XOR rows issued
	XORLenSum              // variables across the issued XOR rows (an exact popcount total)
	Decisions              // solver branching decisions
	Conflicts              // solver conflicts
	Propagations           // solver propagations
	Learned                // clauses learned
	Removed                // learned clauses reclaimed (reduceDB + session GC)
	Compactions            // clause-arena GC relocation passes
	ArenaBytes             // clause-arena footprint in bytes
	SetupRounds            // ApproxMC rounds the setup phase ran: until q was settled, not the t a full count runs
	EasyCase               // 1 when the setup enumerated every witness (|R_F| ≤ hiThresh)
	Q                      // the candidate-range endpoint q of Algorithm 1, line 10
	NumCounters
)

// Kind is a row's metric type: Sub differences a Counter (a flow) and
// keeps a Gauge's later value (a level).
type Kind uint8

// Op is how Merge combines two values of a row. Both ops are
// commutative and associative, so a merged Vec does not depend on
// merge order.
type Op uint8

const (
	Counter Kind = iota
	Gauge
)

const (
	Add Op = iota
	Max
)

// Row describes one counter.
type Row struct {
	Name  string // snake_case stem of the metric family (unigen_solver_<name>)
	Help  string // metric HELP text; rows without one stay off /metrics
	Kind  Kind
	Merge Op
	// Deterministic rows are in the stats-determinism contract (DESIGN
	// §5): for a fixed seed they are equal at every worker count. The
	// others describe the executing sessions' solvers, whose learned
	// clauses and phases depend on which rounds each session ran.
	Deterministic bool
}

// Table holds one row per ID.
var Table = [NumCounters]Row{
	Samples:      {Name: "samples", Deterministic: true},
	Failures:     {Name: "failures", Deterministic: true},
	BSATCalls:    {Name: "bsat_calls", Help: "Bounded-enumeration solver calls.", Deterministic: true},
	XORRows:      {Name: "xor_rows", Help: "Hash XOR rows issued.", Deterministic: true},
	XORLenSum:    {Name: "xor_len_sum", Deterministic: true},
	Decisions:    {Name: "decisions"},
	Conflicts:    {Name: "conflicts", Help: "CDCL conflicts."},
	Propagations: {Name: "propagations", Help: "Unit propagations."},
	Learned:      {Name: "learned", Help: "Clauses learned."},
	Removed:      {Name: "removed", Help: "Learned clauses reclaimed (reduceDB + session GC)."},
	Compactions:  {Name: "compactions", Help: "Clause-arena GC compactions."},
	ArenaBytes:   {Name: "arena_bytes", Help: "Largest clause-arena footprint any session reported.", Kind: Gauge, Merge: Max},
	SetupRounds:  {Name: "setup_rounds", Deterministic: true},
	EasyCase:     {Name: "easy_case", Kind: Gauge, Merge: Max, Deterministic: true},
	Q:            {Name: "q", Kind: Gauge, Merge: Max, Deterministic: true},
}

// Vec holds one value per counter.
type Vec [NumCounters]int64

// Merge returns v and o combined row by row with each row's merge op.
func (v Vec) Merge(o Vec) Vec {
	for id, r := range Table {
		if r.Merge == Max {
			v[id] = max(v[id], o[id])
		} else {
			v[id] += o[id]
		}
	}
	return v
}

// Sub returns what changed from before to v: counters are differenced,
// gauges keep v's value.
func (v Vec) Sub(before Vec) Vec {
	for id, r := range Table {
		if r.Kind == Counter {
			v[id] -= before[id]
		}
	}
	return v
}

// Totals is a Vec that goroutines fold into concurrently. Rows are
// independent, so a Load that races a Fold may see part of it: a
// scrape is skewed by one in-flight fold at most, never torn in a row.
type Totals [NumCounters]atomic.Int64

// Fold merges v into t with each row's merge op.
func (t *Totals) Fold(v Vec) {
	for id, r := range Table {
		c := &t[id]
		if r.Merge == Add {
			c.Add(v[id])
			continue
		}
		for {
			cur := c.Load()
			if v[id] <= cur || c.CompareAndSwap(cur, v[id]) {
				break
			}
		}
	}
}

// Load snapshots t.
func (t *Totals) Load() Vec {
	var v Vec
	for id := range t {
		v[id] = t[id].Load()
	}
	return v
}
