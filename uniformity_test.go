package unigen_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"unigen"
	"unigen/internal/circuit"
	"unigen/internal/cnf"
)

// TestUniformityBattery is the statistical regression test for the
// paper's headline guarantee: with ε = 6 and S an independent support,
// every witness is returned with probability within a (1+ε) factor of
// uniform (Theorem 1). On three small formulas we enumerate the
// projected solution space exactly (brute force — an oracle independent
// of the solver stack), draw ≥2000 samples with a fixed seed, and
// assert chi-square and total-variation bounds far below what any
// systematically skewed sampler would produce, yet generous enough for
// the binomial noise of a finite, deterministic draw. The seeds are
// fixed, so the observed statistics are reproducible run to run —
// CI-stable by construction.
//
// The fixtures exercise the three sampling regimes, and hashing over
// a hash set smaller than the declared sampling set:
//   - easy: |R_F| ≤ hiThresh, sampling is an exact-uniform index pick;
//   - cnf: a clause-constrained space above hiThresh → hashing path;
//   - xor: a parity-structured space (native XOR clauses) → hashing
//     path over the XOR-aware solver;
//   - fullsup: a Tseitin circuit declaring every variable, gate outputs
//     included → hashing over the inputs alone.
func TestUniformityBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical battery skipped in -short mode (CI runs it explicitly under -race)")
	}
	cases := []struct {
		name    string
		dimacs  string
		n       int
		seed    uint64
		maxChi  float64 // multiple of (K-1), the chi-square mean under uniformity
		maxTV   float64
		wantMin int // sanity floor on |R_F↓S| so fixtures stay in their regime
		wantMax int
		hashSet []unigen.Var // when set, the hash set the setup must derive
	}{
		{
			// (x1 ∨ x2) over 6 vars: 48 witnesses ≤ hiThresh(ε=6) = 64,
			// so sampling is the exactly uniform easy-case index pick.
			name:   "easy",
			dimacs: "p cnf 6 1\n1 2 0\n",
			n:      4000,
			seed:   1,
			maxChi: 1.6, maxTV: 0.10,
			wantMin: 48, wantMax: 48,
		},
		{
			// Three 3-clauses over 8 vars: well above hiThresh, forcing
			// the hash-partition path of Algorithm 1 lines 12-22.
			name:   "cnf",
			dimacs: "p cnf 8 3\n1 2 3 0\n-2 4 -5 0\n3 -6 7 0\n",
			n:      2200,
			seed:   2,
			maxChi: 1.6, maxTV: 0.16,
			wantMin: 100, wantMax: 220,
		},
		{
			// Three independent parity constraints over 10 vars: 2^7 =
			// 128 witnesses, hashing path through the XOR-aware solver.
			// All 10 vars are declared, but the parities define x1, x2
			// and x4 from the rest, so rows run over the other 7.
			name:   "xor",
			dimacs: "p cnf 10 0\nx1 2 3 0\nx4 -5 6 0\nx1 4 7 8 0\n",
			n:      2200,
			seed:   3,
			maxChi: 1.6, maxTV: 0.14,
			wantMin: 128, wantMax: 128,
			hashSet: []unigen.Var{3, 5, 6, 7, 8, 9, 10},
		},
		{
			// Seven free inputs x1..x7 and five AND/OR gates x8..x12,
			// with no "c ind" line: the declared set is all 12 vars,
			// 2^7 = 128 witnesses. Every gate is a function of the
			// inputs and no input of the others (each is masked by a
			// sibling input), so the hash set is exactly the inputs.
			name:   "fullsup",
			dimacs: fullSupportCircuit(),
			n:      2200,
			seed:   4,
			maxChi: 1.6, maxTV: 0.14,
			wantMin: 128, wantMax: 128,
			hashSet: []unigen.Var{1, 2, 3, 4, 5, 6, 7},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f, err := unigen.ParseDIMACSString(tc.dimacs)
			if err != nil {
				t.Fatal(err)
			}
			vars := f.SamplingVars()
			space := enumerateProjections(t, f)
			K := len(space)
			if K < tc.wantMin || K > tc.wantMax {
				t.Fatalf("fixture has %d projected witnesses, want [%d, %d]", K, tc.wantMin, tc.wantMax)
			}

			s, err := unigen.NewSampler(f, unigen.Options{
				Epsilon: 6, Seed: tc.seed, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.hashSet != nil {
				if got := s.HashSet(); !reflect.DeepEqual(got, tc.hashSet) || len(got) >= len(vars) {
					t.Fatalf("hash set %v of sampling set %v, want %v", got, vars, tc.hashSet)
				}
			}
			ws, err := s.SampleN(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) != tc.n {
				t.Fatalf("drew %d samples, want %d", len(ws), tc.n)
			}

			tally := map[string]int{}
			for _, w := range ws {
				key := bitkey(w, vars)
				if _, ok := space[key]; !ok {
					t.Fatalf("sampler returned a non-witness projection %q", key)
				}
				tally[key]++
			}

			// Coverage: with n/K ≥ 15 expected per outcome, a sampler
			// respecting the (1+ε) lower bound misses an outcome with
			// negligible probability.
			if float64(tc.n)/float64(K) >= 15 && len(tally) != K {
				t.Fatalf("only %d of %d outcomes observed", len(tally), K)
			}

			// Chi-square against uniform: mean K-1 under uniformity,
			// sd ≈ sqrt(2K); the bound is a generous multiple of the
			// mean, still far below a (1+ε)-violating skew.
			expected := float64(tc.n) / float64(K)
			chi2, tv := 0.0, 0.0
			for key := range space {
				d := float64(tally[key]) - expected
				chi2 += d * d / expected
				tv += math.Abs(float64(tally[key])/float64(tc.n) - 1/float64(K))
			}
			tv /= 2
			t.Logf("K=%d n=%d chi2=%.1f (mean %d) tv=%.4f", K, tc.n, chi2, K-1, tv)
			if bound := tc.maxChi * float64(K-1); chi2 > bound {
				t.Fatalf("chi-square %.1f exceeds bound %.1f (K=%d): samples inconsistent with near-uniformity", chi2, bound, K)
			}
			if tv > tc.maxTV {
				t.Fatalf("total variation %.4f exceeds bound %.4f", tv, tc.maxTV)
			}

			// Per-outcome ratio check tied to Theorem 1: no outcome may
			// be drastically over-represented relative to the (1+ε)
			// ceiling (we allow 3 binomial sigmas on top of it).
			ceil := (1 + 6.0) * expected
			for key, c := range tally {
				if float64(c) > ceil+3*math.Sqrt(ceil) {
					t.Fatalf("outcome %q drawn %d times, (1+ε)-ceiling %.1f", key, c, ceil)
				}
			}
		})
	}
}

// fullSupportCircuit renders the fullsup fixture: (x1∧x2 ∨ x3∨x4) ∧ x7
// and x5∧x6 over seven inputs, Tseitin-encoded with the sampling set
// left undeclared.
func fullSupportCircuit() string {
	b := circuit.NewBuilder()
	x := b.InputWord(7)
	b.Output(b.And(b.Or(b.And(x[0], x[1]), b.Or(x[2], x[3])), x[6]))
	b.Output(b.And(x[4], x[5]))
	enc, err := circuit.Encode(b.Build(), circuit.EncodeOptions{})
	if err != nil {
		panic(err)
	}
	enc.Formula.SamplingSet = nil
	var sb strings.Builder
	if err := cnf.WriteDIMACS(&sb, enc.Formula); err != nil {
		panic(err)
	}
	return sb.String()
}

// enumerateProjections brute-forces the exact projected solution space
// of f: the set of distinct assignments to f.SamplingVars() extendable
// to a witness. Fixtures keep NumVars ≤ 10, so this is at most 1024
// Satisfies checks — exact, and entirely independent of the SAT stack
// under test.
func enumerateProjections(t *testing.T, f *unigen.Formula) map[string]bool {
	t.Helper()
	vars := f.SamplingVars()
	nv := f.NumVars
	if nv > 20 {
		t.Fatalf("fixture too large for brute force: %d vars", nv)
	}
	space := map[string]bool{}
	a := cnf.NewAssignment(nv)
	for mask := 0; mask < 1<<nv; mask++ {
		for i := 1; i <= nv; i++ {
			a.Set(cnf.Var(i), mask&(1<<(i-1)) != 0)
		}
		if a.Satisfies(f) {
			space[bitsKey(a.ProjectBits(vars))] = true
		}
	}
	return space
}

// bitkey renders a sampled witness's projection in the same form the
// brute-force oracle uses.
func bitkey(w unigen.Witness, vars []unigen.Var) string {
	return bitsKey(w.Bits(vars))
}

func bitsKey(bits []bool) string {
	var sb strings.Builder
	sb.Grow(len(bits))
	for _, b := range bits {
		if b {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
