package bsat

import (
	"reflect"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/hashfam"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// TestSessionWitnessesStableAcrossCompaction is the session-level
// relocation gate: two sessions fed identical hash sequences must
// produce bit-identical witness sequences when one of them is forced
// through an arena compaction between every pair of BSAT calls. A
// compaction may only move clauses — any influence on search order
// (watch list order, reasons, learnt index) is a bug this test
// catches.
func TestSessionWitnessesStableAcrossCompaction(t *testing.T) {
	rng := randx.New(0x60c60c)
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(8)
		f := randomFormula(rng, n)
		cfg := sat.Config{Seed: uint64(iter), MaxConflicts: 200000}
		plain := NewSession(f, Options{Solver: cfg})
		gcd := NewSession(f, Options{Solver: cfg})
		vars := plain.SamplingSet()
		hrng1 := randx.New(uint64(iter) * 77)
		hrng2 := randx.New(uint64(iter) * 77)
		for call := 0; call < 6; call++ {
			var h1, h2 *hashfam.Hash
			if call > 0 {
				// Keep the two hash RNG streams in lockstep: consume the
				// row-count draw from both.
				m := 1 + hrng1.Intn(3)
				if m2 := 1 + hrng2.Intn(3); m2 != m {
					t.Fatal("hash RNG streams out of sync")
				}
				h1 = hashfam.Draw(hrng1, vars, m)
				h2 = hashfam.Draw(hrng2, vars, m)
			}
			res1 := plain.Enumerate(10, h1)
			res2 := gcd.Enumerate(10, h2)
			gcd.s.CompactArena()
			k1 := witnessKeys(t, res1.Witnesses, vars)
			k2 := witnessKeys(t, res2.Witnesses, vars)
			if !reflect.DeepEqual(k1, k2) {
				t.Fatalf("iter %d call %d: witness sequences diverge across compaction: %d vs %d witnesses",
					iter, call, len(k1), len(k2))
			}
			if res1.Exhausted != res2.Exhausted || res1.BudgetExceeded != res2.BudgetExceeded {
				t.Fatalf("iter %d call %d: outcome flags diverge", iter, call)
			}
		}
	}
}

// TestSessionArenaStatsExposed: the clause-DB metrics must flow out of
// the session's per-call stats delta — Learned counts up, ArenaBytes
// reports the live footprint rather than a (meaningless) delta.
func TestSessionArenaStatsExposed(t *testing.T) {
	rng := randx.New(0x57a75)
	f := randomFormula(rng, 10)
	f.AddClause(1, 2, 3) // ensure at least one clause exists
	sess := NewSession(f, Options{Solver: sat.Config{Seed: 3}})
	var sawArena bool
	for call := 0; call < 5; call++ {
		var h *hashfam.Hash
		if call > 0 {
			h = hashfam.Draw(rng, sess.SamplingSet(), 1+rng.Intn(2))
		}
		res := sess.Enumerate(8, h)
		if res.Stats[tally.ArenaBytes] > 0 {
			sawArena = true
		}
		if res.Stats[tally.ArenaBytes] < 0 || res.Stats[tally.Compactions] < 0 {
			t.Fatalf("negative gauge/counter in per-call delta: %+v", res.Stats)
		}
	}
	if !sawArena {
		t.Fatal("ArenaBytes never reported a live footprint")
	}
}

// TestSessionStatsIncludeRetireGC: the GC work a call performs at its
// cell boundary (releasing the previous cell's blocking clauses,
// compacting the arena) must appear in that call's stats delta — the
// snapshot is taken before retire, not after.
func TestSessionStatsIncludeRetireGC(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(1, 2, 3)
	sess := NewSession(f, Options{Solver: sat.Config{Seed: 1}})
	res := sess.Enumerate(8, nil)
	if len(res.Witnesses) != 8 {
		t.Fatalf("first call found %d witnesses, want 8", len(res.Witnesses))
	}
	// The second call releases 8 six-literal blocking clauses — nearly
	// the whole arena — so its boundary GC must compact.
	res = sess.Enumerate(8, nil)
	if res.Stats[tally.Compactions] == 0 {
		t.Fatalf("second call's delta shows no compaction despite releasing the previous cell: %+v", res.Stats)
	}
}
