package core

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"strings"
	"testing"

	"unigen/internal/cnf"
	"unigen/internal/tally"
)

// goldenSetup is a hand-built hashing-case setup whose 11 base-stats
// counters, SetupRounds and Q all hold distinct values; the counters
// and SetupRounds fill every byte of their fields, so a reordered or
// resized counter block changes the frame. Q must equal q ≤ |h|.
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
		tally.Q:            2,
	}
	return &Setup{
		f:    f,
		s:    []cnf.Var{1, 2, 3, 4},
		h:    []cnf.Var{1, 3, 4},
		kp:   kp,
		opts: Options{Epsilon: 6},
		q:    2,
		est:  big.NewInt(300),
		base: base,
	}
}

// goldenFrame is goldenSetup's version-4 encoding.
const goldenFrame = `
	554753550400fa0000002e8cae92acc6b5dc3c36fe2f97a6c41f685325e12984
	647a8c5e6a2f83ec6c0b00000000000018400400000002000000020000000200
	0000040000000200000007000000080000000000000000040000000100000002
	000000030000000400000003000000010000000300000004000000822523897b
	65e13f280000003e0000001348d3fbade9394000000000000200000001020000
	00012c0101010101010101020202020202020203030303030303030404040404
	0404040505050505050505060606060606060607070707070707070808080808
	08080809090909090909090a0a0a0a0a0a0a0a0b0b0b0b0b0b0b0b0c0c0c0c00
	020000002a9736da
`

// TestSetupCodecGoldenFrame pins the version-4 frame byte for byte:
// any change to the layout, the counter order or a counter's width
// fails here, and the golden frame decodes back to the same stats.
func TestSetupCodecGoldenFrame(t *testing.T) {
	su := goldenSetup(t)
	blob := encode(t, su)
	want, err := hex.DecodeString(strings.Join(strings.Fields(goldenFrame), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("frame differs from the golden frame:\n got %x\nwant %x", blob, want)
	}
	got, err := DecodeSetup(want, Options{})
	if err != nil {
		t.Fatalf("DecodeSetup(golden): %v", err)
	}
	if got.base != su.base || got.q != su.q || got.est.Cmp(su.est) != 0 {
		t.Fatalf("golden frame decoded to base %+v q=%d est=%v, want %+v q=%d est=%v",
			got.base, got.q, got.est, su.base, su.q, su.est)
	}
}
