package core

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"slices"
	"strings"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/counter"
	"unigen/internal/tally"
)

// goldenSetup is a hand-built hashing-case setup. q is line 10's q for
// the estimate 300 (pivot 40 at ε = 6, |h| = 3). Its solver work is
// nonzero and stays out of the frame.
func goldenSetup(t *testing.T) *Setup {
	t.Helper()
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-3, 4)
	kp, err := ComputeKappaPivot(6)
	if err != nil {
		t.Fatal(err)
	}
	return &Setup{
		f:    f,
		s:    []cnf.Var{1, 2, 3, 4},
		h:    []cnf.Var{1, 3, 4},
		kp:   kp,
		opts: Options{Epsilon: 6},
		q:    3,
		est:  big.NewInt(300),
		base: Stats{tally.BSATCalls: 5, tally.Conflicts: 7, tally.SetupRounds: 2},
	}
}

// goldenSettledSetup is goldenSetup stopped before its last 3 rounds:
// with 7 estimates and 3 rounds left the median can end anywhere from
// the third estimate, 128, to the sixth, 256, and line 10 gives q = 3
// for both.
func goldenSettledSetup(t *testing.T) *Setup {
	t.Helper()
	su := goldenSetup(t)
	su.est = nil
	su.amc = counter.ApproxMCState{RNG: 0x1122334455667788, Start: 2, Left: 3}
	for _, e := range []int64{64, 96, 128, 160, 200, 256, 288} {
		su.amc.Estimates = append(su.amc.Estimates, big.NewInt(e))
	}
	return su
}

// goldenFrame is goldenSetup's version-6 encoding.
const goldenFrame = `
	554753550600900000002e8cae92acc6b5dc3c36fe2f97a6c41f685325e12984
	647a8c5e6a2f83ec6c0b000000000000184018000000007020636e6620342032
	0a31203220300a2d33203420300a040000000100000002000000030000000400
	000003000000010000000300000004000000822523897b65e13f280000003e00
	00001348d3fbade939400000000000030000000102000000012c8f623a48
`

// goldenSettledFrame is goldenSettledSetup's version-6 encoding.
const goldenSettledFrame = `
	554753550600c30000002e8cae92acc6b5dc3c36fe2f97a6c41f685325e12984
	647a8c5e6a2f83ec6c0b000000000000184018000000007020636e6620342032
	0a31203220300a2d33203420300a040000000100000002000000030000000400
	000003000000010000000300000004000000822523897b65e13f280000003e00
	00001348d3fbade9394000000000000300000002887766554433221102000000
	030000000700000001000000400100000060010000008001000000a001000000
	c8020000000100020000000120e6ae0344
`

// TestSetupCodecGoldenFrame pins the version-6 frame byte for byte, with
// a finished estimate and with a settled run: any change to the layout
// or to the formula text fails here, and each golden frame decodes
// back to the same q and count, with setup stats that hold q alone.
func TestSetupCodecGoldenFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		su    *Setup
		frame string
	}{
		{"finished", goldenSetup(t), goldenFrame},
		{"settled", goldenSettledSetup(t), goldenSettledFrame},
	} {
		blob := encode(t, tc.su)
		want, err := hex.DecodeString(strings.Join(strings.Fields(tc.frame), ""))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("%s: frame differs from the golden frame:\n got %x\nwant %x", tc.name, blob, want)
		}
		got, err := DecodeSetup(want, Options{})
		if err != nil {
			t.Fatalf("%s: DecodeSetup(golden): %v", tc.name, err)
		}
		if want := (Stats{tally.Q: int64(tc.su.q)}); got.q != tc.su.q || got.SetupStats() != want {
			t.Fatalf("%s: golden frame decoded to q=%d stats %+v, want q=%d stats %+v",
				tc.name, got.q, got.SetupStats(), tc.su.q, want)
		}
		ga, wa := got.amc, tc.su.amc
		if ga.RNG != wa.RNG || ga.Start != wa.Start || ga.Left != wa.Left ||
			!slices.EqualFunc(ga.Estimates, wa.Estimates, func(a, b *big.Int) bool { return a.Cmp(b) == 0 }) {
			t.Fatalf("%s: golden frame decoded to run state %+v, want %+v", tc.name, ga, wa)
		}
		wc, _, _, werr := tc.su.WitnessCount(nil, nil)
		gc, _, _, gerr := got.WitnessCount(nil, nil)
		if werr != nil || gerr != nil || wc.Cmp(gc) != 0 {
			t.Fatalf("%s: count %v (%v), decoded %v (%v)", tc.name, wc, werr, gc, gerr)
		}
	}
}
