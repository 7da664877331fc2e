package unigen

import (
	"context"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"
	"time"

	"unigen/internal/counter"
	"unigen/internal/randx"
)

const demoDIMACS = `c demo: (x1 ∨ x2) with x3 free
c ind 1 2 3 0
p cnf 3 1
1 2 0
`

func TestParseAndSolve(t *testing.T) {
	f, err := ParseDIMACSString(demoDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	w, sat, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("demo formula should be SAT")
	}
	if !w.Satisfies(f) {
		t.Fatal("invalid witness")
	}
}

func TestSamplerEndToEnd(t *testing.T) {
	f, err := ParseDIMACSString(demoDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(f, Options{Epsilon: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 3500
	for i := 0; i < n; i++ {
		w, err := s.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
		key := ""
		for _, b := range w.Bits(f.SamplingSet) {
			if b {
				key += "1"
			} else {
				key += "0"
			}
		}
		counts[key]++
	}
	if len(counts) != 6 { // 3 over {x1,x2} × 2 over x3
		t.Fatalf("distinct witnesses = %d, want 6", len(counts))
	}
	for k, c := range counts {
		if math.Abs(float64(c)-n/6.0) > 6*math.Sqrt(n/6.0) {
			t.Fatalf("witness %s count %d far from uniform %d", k, c, n/6)
		}
	}
	st := s.Stats()
	if st.Samples != n || st.SuccProb != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSampleN(t *testing.T) {
	f := NewFormula(10)
	f.AddClause(1, 2, 3)
	s, err := NewSampler(f, Options{Epsilon: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.SampleN(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 20 {
		t.Fatalf("got %d witnesses", len(ws))
	}
	for _, w := range ws {
		if !w.Satisfies(f) {
			t.Fatal("invalid witness")
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	f := NewFormula(2)
	if _, err := NewSampler(f, Options{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon 1.5 accepted")
	}
}

func TestExactCount(t *testing.T) {
	f := NewFormula(4)
	f.AddClause(1, 2)
	got, err := ExactCount(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(12)) != 0 {
		t.Fatalf("count = %v, want 12", got)
	}
}

func TestExactProjectedCount(t *testing.T) {
	f := NewFormula(4)
	f.AddClause(1, 2)
	f.SamplingSet = []Var{1, 2}
	got, err := ExactProjectedCount(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("count = %v, want 3", got)
	}
}

func TestApproxCount(t *testing.T) {
	f := NewFormula(9) // 512 models
	got, err := ApproxCount(f, 0.8, 0.2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := new(big.Float).SetInt(got)
	lo, hi := big.NewFloat(512/1.8), big.NewFloat(512*1.8)
	if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
		t.Fatalf("ApproxCount = %v, want within [%v,%v]", got, lo, hi)
	}
}

// TestApproxCountRunsEveryRound: ApproxCount is counter.ApproxMC at
// ApproxMC2's full t, not a setup's run stopped once q is settled: it
// returns the estimate and round count of the full run on the
// generator it seeds.
func TestApproxCountRunsEveryRound(t *testing.T) {
	f := NewFormula(14)
	f.AddClause(13, 14)
	f.SamplingSet = []Var{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	got, err := ApproxCount(f, 0.8, 0.2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(5 ^ 0xa99c0c13)
	full, err := counter.ApproxMC(f, rng, counter.ApproxMCOptions{Epsilon: 0.8, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(full.Count) != 0 {
		t.Fatalf("ApproxCount = %v, full ApproxMC run %v", got, full.Count)
	}
	if full.Rounds < 60 {
		t.Fatalf("full run kept %d estimates, want about 67", full.Rounds)
	}
}

func TestXORClauseRoundTrip(t *testing.T) {
	f := NewFormula(3)
	f.AddXOR([]Var{1, 2, 3}, true)
	var sb strings.Builder
	if err := WriteDIMACS(&sb, f); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDIMACSString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.XORs) != 1 || !g.XORs[0].RHS {
		t.Fatalf("round trip lost XOR: %+v", g.XORs)
	}
}

func TestUnsatSampling(t *testing.T) {
	f := NewFormula(1)
	f.AddClause(1)
	f.AddClause(-1)
	s, err := NewSampler(f, Options{Epsilon: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(); !errors.Is(err, ErrUnsat) {
		t.Fatalf("unsat sampling: err = %v, want ErrUnsat", err)
	}
}

func TestSolveUnsat(t *testing.T) {
	f := NewFormula(2)
	f.AddXOR([]Var{1, 2}, true)
	f.AddXOR([]Var{1, 2}, false)
	_, sat, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatal("unsat formula reported SAT")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	f := NewFormula(8)
	f.AddClause(1, 2, 3)
	run := func() string {
		s, err := NewSampler(f, Options{Epsilon: 6, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := s.SampleN(5)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, w := range ws {
			for _, b := range w.Bits(f.SamplingVars()) {
				if b {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	if run() != run() {
		t.Fatal("same seed produced different sample streams")
	}
}

// hardDIMACS forces the hashing path: 1024 witnesses over the declared
// 10-variable sampling set, hiThresh at ε=6 is well below that.
const hardDIMACS = `c ind 1 2 3 4 5 6 7 8 9 10 0
p cnf 12 1
11 12 0
`

func TestWorkersDeterminism(t *testing.T) {
	// The facade invariant: the sample stream is a function of Seed
	// alone, whatever the pool size (Workers 0 means one worker).
	f, err := ParseDIMACSString(hardDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		s, err := NewSampler(f, Options{Epsilon: 6, Seed: 31, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := s.SampleN(15)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, w := range ws {
			for _, b := range w.Bits(f.SamplingVars()) {
				if b {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	ref := run(1)
	for _, workers := range []int{0, 2, 4} {
		if got := run(workers); got != ref {
			t.Fatalf("Workers=%d produced a different sample stream", workers)
		}
	}
}

func TestSampleNContextCancellation(t *testing.T) {
	f, err := ParseDIMACSString(hardDIMACS)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		s, err := NewSampler(f, Options{Epsilon: 6, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		if _, err := s.SampleNContext(ctx, 100000); !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The sampler must remain usable afterwards.
		if ws, err := s.SampleN(2); err != nil || len(ws) != 2 {
			t.Fatalf("Workers=%d: post-cancel SampleN: %d witnesses, err=%v", workers, len(ws), err)
		}
	}
}
