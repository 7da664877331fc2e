package parallel

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/faultpoint"
	"unigen/internal/obs"
	"unigen/internal/randx"
	"unigen/internal/tally"
)

// hardFormula has 1024 witnesses over its 10-variable sampling set,
// forcing the hashing path at ε=6 (mirrors the core test fixture).
func hardFormula() *cnf.Formula {
	f := cnf.New(12)
	f.AddClause(11, 12)
	f.SamplingSet = []cnf.Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	return f
}

func projections(t *testing.T, f *cnf.Formula, ws []cnf.Assignment) []string {
	t.Helper()
	vars := f.SamplingVars()
	out := make([]string, len(ws))
	for i, w := range ws {
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		out[i] = w.Project(vars)
	}
	return out
}

func sampleWith(t *testing.T, workers, n int) ([]string, core.Stats) {
	t.Helper()
	f := hardFormula()
	eng, err := NewEngine(f, Options{
		Workers:    workers,
		MasterSeed: 7,
		Core:       core.Options{Epsilon: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != workers {
		t.Fatalf("pool size %d, want %d", eng.Workers(), workers)
	}
	ws, err := eng.SampleN(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != n {
		t.Fatalf("got %d witnesses, want %d", len(ws), n)
	}
	return projections(t, f, ws), eng.Stats()
}

// canonStats zeroes the counters outside the determinism contract
// (tally.Row.Deterministic): the solver diagnostics depend on each
// session's accumulated solver state, so they legitimately vary with
// pool shape.
func canonStats(st core.Stats) core.Stats {
	for id, row := range tally.Table {
		if !row.Deterministic {
			st[id] = 0
		}
	}
	return st
}

// TestDeterminismAcrossWorkerCounts is the engine's headline invariant:
// the sample multiset and the merged stats for a fixed master seed are
// identical whether rounds run on 1, 2, or 8 sessions. Run it with
// -race to exercise the pool under the race detector.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = 30
	refSeq, refStats := sampleWith(t, 1, n)
	refSorted := append([]string(nil), refSeq...)
	sort.Strings(refSorted)
	for _, workers := range []int{2, 8} {
		seq, st := sampleWith(t, workers, n)
		// Rounds are consumed in index order, so not just the multiset
		// but the sequence itself must match.
		if !reflect.DeepEqual(seq, refSeq) {
			t.Fatalf("workers=%d: sample sequence diverged from single-worker run", workers)
		}
		if !reflect.DeepEqual(canonStats(st), canonStats(refStats)) {
			t.Fatalf("workers=%d: merged stats %+v != single-worker stats %+v", workers, st, refStats)
		}
	}
	if refStats.Samples() != n || refStats.Q() == 0 || refStats.EasyCase() {
		t.Fatalf("implausible stats: %+v", refStats)
	}
	if len(refSorted) != n {
		t.Fatalf("multiset size %d", len(refSorted))
	}
}

// TestSampleNContinuesRoundStream: two SampleN calls on one engine must
// reproduce one big SampleN call on a fresh engine with the same seed.
func TestSampleNContinuesRoundStream(t *testing.T) {
	f := hardFormula()
	mk := func() *Engine {
		eng, err := NewEngine(f, Options{Workers: 3, MasterSeed: 11, Core: core.Options{Epsilon: 6}})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	whole := mk()
	all, err := whole.SampleN(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	split := mk()
	first, err := split.SampleN(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	second, err := split.SampleN(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	got := projections(t, f, append(first, second...))
	want := projections(t, f, all)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("split SampleN calls diverged from one whole call")
	}
	if !reflect.DeepEqual(canonStats(split.Stats()), canonStats(whole.Stats())) {
		t.Fatalf("split stats %+v != whole stats %+v", split.Stats(), whole.Stats())
	}
}

// TestSampleMatchesSampleN: one-at-a-time SampleN(ctx, 1) draws must
// consume the same round stream as one batch SampleN, witnesses and
// stats alike.
func TestSampleMatchesSampleN(t *testing.T) {
	f := hardFormula()
	opts := Options{Workers: 2, MasterSeed: 13, Core: core.Options{Epsilon: 6}}
	batch, err := NewEngine(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := batch.SampleN(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewEngine(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []cnf.Assignment
	for i := 0; i < 10; i++ {
		w, err := single.SampleN(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, w...)
	}
	if !reflect.DeepEqual(projections(t, f, got), projections(t, f, ws)) {
		t.Fatal("one-at-a-time SampleN draws diverged from one batch SampleN")
	}
	if !reflect.DeepEqual(canonStats(single.Stats()), canonStats(batch.Stats())) {
		t.Fatalf("stats diverged: %+v vs %+v", single.Stats(), batch.Stats())
	}
}

func TestEasyCasePool(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(1, 2) // 3 witnesses: easy path
	eng, err := NewEngine(f, Options{Workers: 4, MasterSeed: 3, Core: core.Options{Epsilon: 6}})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := eng.SampleN(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 50 {
		t.Fatalf("got %d witnesses", len(ws))
	}
	st := eng.Stats()
	if !st.EasyCase() || st.Samples() != 50 {
		t.Fatalf("stats %+v", st)
	}
	distinct := map[string]bool{}
	for _, p := range projections(t, f, ws) {
		distinct[p] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("saw %d distinct witnesses, want 3", len(distinct))
	}
}

func TestUnsatFormulaSurfacesError(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(1)
	f.AddClause(-1)
	eng, err := NewEngine(f, Options{Workers: 2, MasterSeed: 1, Core: core.Options{Epsilon: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SampleN(context.Background(), 5); err == nil {
		t.Fatal("sampling an unsat formula succeeded")
	}
}

// TestSampleNCancellation: a cancelled context must stop a large
// SampleN long before the work completes, returning ctx.Err(). The
// request (5000 samples of a hashing-path instance) takes many seconds
// of solver time single-threaded; cancellation after a few rounds must
// bring the call home promptly.
func TestSampleNCancellation(t *testing.T) {
	eng, err := NewEngine(hardFormula(), Options{
		Workers:    2,
		MasterSeed: 5,
		Core:       core.Options{Epsilon: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	ws, err := eng.SampleN(ctx, 5000)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ws) >= 5000 {
		t.Fatal("cancellation returned a full batch")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("SampleN took %v after cancellation", elapsed)
	}
	// The engine must remain usable after an aborted call.
	more, err := eng.SampleN(context.Background(), 3)
	if err != nil || len(more) != 3 {
		t.Fatalf("post-cancel SampleN: %d witnesses, err=%v", len(more), err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	eng, err := NewEngine(hardFormula(), Options{
		Workers:    2,
		MasterSeed: 5,
		Core:       core.Options{Epsilon: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SampleN(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSampleNRejectsNonPositive(t *testing.T) {
	eng, err := NewEngine(hardFormula(), Options{Workers: 1, MasterSeed: 2, Core: core.Options{Epsilon: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SampleN(context.Background(), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

// TestStreamIndependentOfConsumption pins the property SampleRound
// relies on: the stream for round i does not depend on any other
// round's stream having been consumed.
func TestStreamIndependentOfConsumption(t *testing.T) {
	a := randx.Stream(99, 4)
	b := randx.Stream(99, 4)
	_ = randx.Stream(99, 3).Uint64() // consuming a sibling changes nothing
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Stream(99, 4) not reproducible")
		}
	}
}

// hardSetup prepares hardFormula once for tests that build several
// engines over one Setup.
func hardSetup(t *testing.T) *core.Setup {
	t.Helper()
	eng, err := NewEngine(hardFormula(), Options{Workers: 1, MasterSeed: 1, Core: core.Options{Epsilon: 6}})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Setup()
}

// roundSpans counts the round spans started under tr's root.
func roundSpans(tr *obs.Trace) int64 {
	var n int64
	for _, c := range tr.Snapshot().Children {
		if c.Name == "round" {
			n++
		}
	}
	return n
}

// TestSampleNGateStartsOnlyConsumedRounds: the gate admits round idx
// only while idx < n + (⊥ rounds consumed so far), so a successful call
// starts exactly the rounds it consumes, at every pool size. Seed 15's
// round 0 is ⊥ and seed 6 has a ⊥ among its first six rounds, so both
// n legs pass through the gate's ⊥ path.
func TestSampleNGateStartsOnlyConsumedRounds(t *testing.T) {
	su := hardSetup(t)
	for _, workers := range []int{1, 2} {
		for _, n := range []int{1, 5} {
			var bots int64
			for _, seed := range []uint64{6, 15} {
				eng := NewEngineFromSetup(su, Options{Workers: workers, MasterSeed: seed})
				tr := obs.NewTrace()
				ws, err := eng.SampleN(obs.WithTrace(context.Background(), tr), n)
				if err != nil || len(ws) != n {
					t.Fatalf("workers=%d n=%d seed=%d: %d witnesses, err=%v", workers, n, seed, len(ws), err)
				}
				st := eng.Stats()
				if got := roundSpans(tr); got != st.Rounds() {
					t.Fatalf("workers=%d n=%d seed=%d: %d round spans started, %d rounds consumed", workers, n, seed, got, st.Rounds())
				}
				bots += st.Failures()
			}
			if bots == 0 {
				t.Fatalf("workers=%d n=%d: no ⊥ round; the fixture no longer reaches the gate's ⊥ path", workers, n)
			}
		}
	}
}

// TestSampleNCancelAtGate: with n = 1 the gate admits one round, so one
// worker runs round 0, here stalled until interrupted, while the other
// waits at the gate. Cancelling ctx must end the stalled round and wake
// the waiting worker promptly, without it starting a round.
func TestSampleNCancelAtGate(t *testing.T) {
	eng := NewEngineFromSetup(hardSetup(t), Options{Workers: 2, MasterSeed: 3})
	faultpoint.Arm(faultpoint.SolverStall, faultpoint.Fault{Delay: time.Minute})
	defer faultpoint.Reset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	tr := obs.NewTrace()
	start := time.Now()
	ws, err := eng.SampleN(obs.WithTrace(ctx, tr), 1)
	if !errors.Is(err, context.Canceled) || len(ws) != 0 {
		t.Fatalf("got %d witnesses, err = %v; want none and context.Canceled", len(ws), err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("SampleN took %v after cancellation", elapsed)
	}
	if got := roundSpans(tr); got != 1 {
		t.Fatalf("%d rounds started, want 1: the waiting worker left the gate", got)
	}
}
