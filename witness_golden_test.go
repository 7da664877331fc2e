package unigen

import (
	"os"
	"strings"
	"testing"

	"unigen/internal/benchgen"
)

// TestWitnessStreamGolden pins the witness stream across commits. CI's
// CLI step compares streams only within one commit (-j 1 against -j 2),
// so a change to how cells are enumerated that moved a witness would
// pass it. Cells are enumerated exhaustively and sorted canonically
// (DESIGN §5), so no change to search order may move one. The two
// streams are the batch benchmark workloads: EnqueueSeqSK over its
// declared support and s953a_3_2 hashed over all its variables, at
// small scale, generator seed benchSeed, ε = 6, sampler seed 1 and one
// worker. testdata/witness_stream.txt holds 8 witnesses of each, one
// "<instance> <bits over the sampling set>" line per witness.
func TestWitnessStreamGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/witness_stream.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tc := range []struct {
		name        string
		fullSupport bool
	}{{"EnqueueSeqSK", false}, {"s953a_3_2", true}} {
		inst, err := benchgen.Generate(tc.name, benchgen.ScaleSmall, benchSeed)
		if err != nil {
			t.Fatal(err)
		}
		f := inst.F
		vars := f.SamplingVars()
		opts := Options{Epsilon: 6, Workers: 1, Seed: 1}
		if tc.fullSupport {
			vars = make([]Var, f.NumVars)
			for i := range vars {
				vars[i] = Var(i + 1)
			}
			opts.SamplingSet = vars
		}
		s, err := NewSampler(f, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ws, err := s.SampleN(8)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, w := range ws {
			got.WriteString(tc.name + " ")
			for _, b := range w.Bits(vars) {
				if b {
					got.WriteByte('1')
				} else {
					got.WriteByte('0')
				}
			}
			got.WriteByte('\n')
		}
	}
	if got.String() != string(want) {
		t.Fatalf("witness stream moved; got\n%swant\n%s", got.String(), want)
	}
}
