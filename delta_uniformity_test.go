package unigen_test

import (
	"context"
	"math"
	"math/big"
	"testing"

	"unigen"
	"unigen/internal/bdd"
)

// TestDeltaUniformityBattery extends the statistical battery to the
// delta path: witnesses of base ∧ assumptions served through
// Service.SampleDelta on pooled warm sessions must carry the same
// (1+ε) near-uniformity guarantee as a cold prepare of the conjoined
// formula — conditioning must not skew the distribution. The
// conditioned solution space is brute-forced by the same
// solver-independent oracle as TestUniformityBattery and cross-checked
// against a BDD model count (a third independent engine); the delta
// draw is also compared witness-for-witness against a cold service fed
// the conjoined formula at the same seed, the end-to-end form of the
// determinism contract.
//
// The two assumption sets land the conditioned formula in the two
// sampling regimes: "hashed" stays above hiThresh(ε=6) = 64 and runs
// the hash-partition path on the pooled session; "easy" collapses
// below it and is served by the exact-uniform index pick. "pruned"
// conditions a base whose declared set is larger than a minimal
// support, so the conditioned hash set is smaller than the declared
// set (and differs from the base's).
func TestDeltaUniformityBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical battery skipped in -short mode (CI runs it explicitly under -race)")
	}
	// Sampling set defaults to all 10 vars, so the projected count the
	// oracle enumerates IS the total model count the BDD computes.
	const baseDIMACS = "p cnf 10 2\n1 2 3 0\n-2 4 -5 0\n"
	cases := []struct {
		name        string
		base        string // base DIMACS; empty means baseDIMACS
		assumptions []int
		n           int
		seed        uint64
		maxChi      float64 // multiple of (K-1), the chi-square mean under uniformity
		maxTV       float64
		wantK       int // exact conditioned count, verified three ways
		easy        bool
	}{
		{
			// {1, -2} satisfies both clauses; vars 3..10 free → 2^8 = 256
			// conditioned witnesses, above hiThresh → hashing path.
			name:        "hashed",
			assumptions: []int{1, -2},
			n:           2600,
			seed:        41,
			maxChi:      1.6, maxTV: 0.18,
			wantK: 256,
		},
		{
			// Five units leave vars 6..10 free → 32 ≤ 64 witnesses: the
			// easy regime, re-enumerated exactly under the assumptions.
			name:        "easy",
			assumptions: []int{1, -2, 3, -4, 5},
			n:           4000,
			seed:        42,
			maxChi:      1.6, maxTV: 0.10,
			wantK: 32,
			easy:  true,
		},
		{
			// prunedFixture declares all 12 vars but hashes over x2..x11;
			// under {1, -5} the conditioned hash set keeps the fixed x1
			// and drops x2 and x12. 2^8 = 256 conditioned witnesses.
			name:        "pruned",
			base:        prunedFixture,
			assumptions: []int{1, -5},
			n:           2600,
			seed:        43,
			maxChi:      1.6, maxTV: 0.18,
			wantK: 256,
		},
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			text := tc.base
			if text == "" {
				text = baseDIMACS
			}
			f, err := unigen.ParseDIMACSString(text)
			if err != nil {
				t.Fatal(err)
			}
			vars := f.SamplingVars()

			// Oracle 1: brute-force enumeration of the conjoined formula.
			conj := f.Clone()
			for _, lit := range tc.assumptions {
				conj.AddClause(lit)
			}
			space := enumerateProjections(t, conj)
			K := len(space)
			if K != tc.wantK {
				t.Fatalf("oracle found %d conditioned witnesses, fixture expects %d", K, tc.wantK)
			}

			// Oracle 2: an independent BDD model count must agree exactly.
			bb := bdd.NewBuilder(conj.NumVars, 0)
			root, err := bb.CompileCNF(conj)
			if err != nil {
				t.Fatal(err)
			}
			if bc := bb.Count(root); bc.Cmp(big.NewInt(int64(K))) != 0 {
				t.Fatalf("BDD counts %v conditioned models, brute force found %d", bc, K)
			}

			opts := unigen.ServiceOptions{Epsilon: 6, Workers: 2}
			svc, err := unigen.NewService(opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the base so the fingerprint resolves, then go delta.
			if _, err := svc.Sample(ctx, f, 7, 1); err != nil {
				t.Fatal(err)
			}
			base := unigen.FormulaFingerprint(f)

			// Check 3: the service's conditioned count against the oracles.
			cnt, exact, err := svc.CountDelta(ctx, base, tc.assumptions)
			if err != nil {
				t.Fatal(err)
			}
			if tc.easy {
				if !exact || cnt.Cmp(big.NewInt(int64(K))) != 0 {
					t.Fatalf("easy CountDelta = %v exact=%v, want exactly %d", cnt, exact, K)
				}
			} else {
				// Hashing regime reports the ApproxMC estimate; it must at
				// least be within the paper's tolerance band of the truth.
				lo := new(big.Int).Div(big.NewInt(int64(K)), big.NewInt(8))
				hi := new(big.Int).Mul(big.NewInt(int64(K)), big.NewInt(8))
				if exact || cnt.Cmp(lo) < 0 || cnt.Cmp(hi) > 0 {
					t.Fatalf("hashed CountDelta = %v exact=%v, want estimate within [%v, %v]", cnt, exact, lo, hi)
				}
			}

			ws, err := svc.SampleDelta(ctx, base, tc.assumptions, tc.seed, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) != tc.n {
				t.Fatalf("drew %d samples, want %d", len(ws), tc.n)
			}

			// Differential determinism: a cold service handed the conjoined
			// formula must reproduce the delta draw bit for bit.
			cold, err := unigen.NewService(opts)
			if err != nil {
				t.Fatal(err)
			}
			cws, err := cold.Sample(ctx, conj, tc.seed, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if len(cws) != len(ws) {
				t.Fatalf("cold conjoined drew %d samples, delta drew %d", len(cws), len(ws))
			}
			for i := range ws {
				if bitkey(ws[i], vars) != bitkey(cws[i], vars) {
					t.Fatalf("witness %d: delta %q, cold conjoined %q", i, bitkey(ws[i], vars), bitkey(cws[i], vars))
				}
			}

			tally := map[string]int{}
			for _, w := range ws {
				key := bitkey(w, vars)
				if !space[key] {
					t.Fatalf("delta sampler returned a non-witness projection %q", key)
				}
				for _, lit := range tc.assumptions {
					v, want := lit, true
					if v < 0 {
						v, want = -v, false
					}
					if (key[v-1] == '1') != want {
						t.Fatalf("witness %q violates assumption %d", key, lit)
					}
				}
				tally[key]++
			}

			// Same statistics as the cold battery: chi-square and total
			// variation against the exact conditioned uniform, plus the
			// per-outcome (1+ε) ceiling of Theorem 1.
			if float64(tc.n)/float64(K) >= 15 && len(tally) != K {
				t.Fatalf("only %d of %d conditioned outcomes observed", len(tally), K)
			}
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
				t.Fatalf("chi-square %.1f exceeds bound %.1f (K=%d): conditioned samples inconsistent with near-uniformity", chi2, bound, K)
			}
			if tv > tc.maxTV {
				t.Fatalf("total variation %.4f exceeds bound %.4f", tv, tc.maxTV)
			}
			ceil := (1 + 6.0) * expected
			for key, c := range tally {
				if float64(c) > ceil+3*math.Sqrt(ceil) {
					t.Fatalf("outcome %q drawn %d times, (1+ε)-ceiling %.1f", key, c, ceil)
				}
			}

			// The whole battery went through the delta machinery, not a
			// silent fallback to full prepares.
			st := svc.Stats()
			if st.Delta.Served < 2 || st.Delta.UnknownBase != 0 {
				t.Fatalf("delta stats %+v: battery was not served through the delta path", st.Delta)
			}
			if tc.base != "" {
				for _, fs := range st.Formulas {
					if fs.HashVars >= fs.SamplingVars {
						t.Fatalf("formula %s hashes over %d of %d vars: the fixture does not prune", fs.Fingerprint, fs.HashVars, fs.SamplingVars)
					}
				}
			}
		})
	}
}
