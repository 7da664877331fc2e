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
	"unigen/internal/sat"
	"unigen/internal/tally"
)

// goldenSetup is a hand-built hashing-case setup whose 11 base-stats
// counters, SetupRounds and Q all hold distinct values; the counters
// and SetupRounds fill every byte of their fields, so a reordered or
// resized counter block changes the frame. Q must equal q, line 10's
// q for the estimate 300 (pivot 40 at ε = 6, |h| = 3).
func goldenSetup(t *testing.T) *Setup {
	t.Helper()
	f := cnf.New(4)
	f.AddClause(1, 2)
	f.AddClause(-3, 4)
	kp, err := ComputeKappaPivot(6)
	if err != nil {
		t.Fatal(err)
	}
	base := Stats{
		tally.Samples:      0x0101010101010101,
		tally.Failures:     0x0202020202020202,
		tally.BSATCalls:    0x0303030303030303,
		tally.XORRows:      0x0404040404040404,
		tally.XORLenSum:    0x0505050505050505,
		tally.Conflicts:    0x0606060606060606,
		tally.Propagations: 0x0707070707070707,
		tally.Learned:      0x0808080808080808,
		tally.Removed:      0x0909090909090909,
		tally.Compactions:  0x0a0a0a0a0a0a0a0a,
		tally.ArenaBytes:   0x0b0b0b0b0b0b0b0b,
		tally.SetupRounds:  0x0c0c0c0c,
		tally.Q:            3,
	}
	return &Setup{
		f:    f,
		s:    []cnf.Var{1, 2, 3, 4},
		h:    []cnf.Var{1, 3, 4},
		kp:   kp,
		opts: Options{Epsilon: 6},
		q:    3,
		est:  big.NewInt(300),
		base: base,
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

// goldenFrame is goldenSetup's version-5 encoding.
const goldenFrame = `
	554753550500fa0000002e8cae92acc6b5dc3c36fe2f97a6c41f685325e12984
	647a8c5e6a2f83ec6c0b00000000000018400400000002000000020000000200
	0000040000000200000007000000080000000000000000040000000100000002
	000000030000000400000003000000010000000300000004000000822523897b
	65e13f280000003e0000001348d3fbade9394000000000000300000001020000
	00012c0101010101010101020202020202020203030303030303030404040404
	0404040505050505050505060606060606060607070707070707070808080808
	08080809090909090909090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c00
	03000000fb26fc4d
`

// goldenSettledFrame is goldenSettledSetup's version-5 encoding.
const goldenSettledFrame = `
	5547535505002d0100002e8cae92acc6b5dc3c36fe2f97a6c41f685325e12984
	647a8c5e6a2f83ec6c0b00000000000018400400000002000000020000000200
	0000040000000200000007000000080000000000000000040000000100000002
	000000030000000400000003000000010000000300000004000000822523897b
	65e13f280000003e0000001348d3fbade9394000000000000300000002887766
	5544332211020000000300000007000000010000004001000000600100000080
	01000000a001000000c802000000010002000000012001010101010101010202
	0202020202020303030303030303040404040404040405050505050505050606
	0606060606060707070707070707080808080808080809090909090909090a0a
	0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c000300000021140272
`

// TestSetupCodecGoldenFrame pins the version-5 frame byte for byte, with
// a finished estimate and with a settled run: any change to the layout,
// the counter order or a counter's width fails here, and each golden
// frame decodes back to the same stats, q and count.
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
		if got.base != tc.su.base || got.q != tc.su.q {
			t.Fatalf("%s: golden frame decoded to base %+v q=%d, want %+v q=%d",
				tc.name, got.base, got.q, tc.su.base, tc.su.q)
		}
		ga, wa := got.amc, tc.su.amc
		if ga.RNG != wa.RNG || ga.Start != wa.Start || ga.Left != wa.Left ||
			!slices.EqualFunc(ga.Estimates, wa.Estimates, func(a, b *big.Int) bool { return a.Cmp(b) == 0 }) {
			t.Fatalf("%s: golden frame decoded to run state %+v, want %+v", tc.name, ga, wa)
		}
		wc, _, _, werr := tc.su.WitnessCount(sat.Config{}, nil)
		gc, _, _, gerr := got.WitnessCount(sat.Config{}, nil)
		if werr != nil || gerr != nil || wc.Cmp(gc) != 0 {
			t.Fatalf("%s: count %v (%v), decoded %v (%v)", tc.name, wc, werr, gc, gerr)
		}
	}
}
