package experiments

import (
	"bytes"
	"strings"
	"testing"

	"unigen/internal/benchgen"
)

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Samples = 5
	cfg.UniWitSampleCap = 3
	// Tight per-call propagation budget: slow UniWit rows "time out"
	// quickly (showing as "-"), exactly like the paper's protocol.
	cfg.MaxPropagations = 2_000_000
	return cfg
}

func TestRunTableRowSmoke(t *testing.T) {
	sp, err := benchgen.ByName("s526_3_2")
	if err != nil {
		t.Fatal(err)
	}
	row := RunTableRow(sp, fastCfg(), 7)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if row.NumVars == 0 || row.SupportSize == 0 {
		t.Fatal("missing dimensions")
	}
	if row.UniGenSuccProb <= 0 {
		t.Fatalf("UniGen success prob = %v", row.UniGenSuccProb)
	}
	if row.UniGenAvgTime <= 0 {
		t.Fatal("missing UniGen timing")
	}
}

func TestXORLengthContrast(t *testing.T) {
	// The paper's central structural claim (E6): UniGen XOR length tracks
	// |S|/2 while UniWit tracks |X|/2 ≫ |S|/2.
	sp, err := benchgen.ByName("LLReverse") // small support, many vars
	if err != nil {
		t.Fatal(err)
	}
	row := RunTableRow(sp, fastCfg(), 9)
	if row.Err != nil {
		t.Fatal(row.Err)
	}
	if row.UniGenAvgXORLen <= 0 {
		t.Skip("easy case: no hashing used at this scale")
	}
	if !row.UniWitFailed && row.UniWitAvgXORLen > 0 &&
		row.UniWitAvgXORLen < 2*row.UniGenAvgXORLen {
		t.Fatalf("UniWit xor len %.1f not ≫ UniGen %.1f",
			row.UniWitAvgXORLen, row.UniGenAvgXORLen)
	}
}

func TestWriteTable(t *testing.T) {
	rows := []TableRow{
		{Benchmark: "x", NumVars: 10, SupportSize: 4, UniGenSuccProb: 1,
			UniGenAvgTime: 1000, UniGenAvgXORLen: 2, UniWitFailed: true},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, 1, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "-") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunFigure1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("slow statistical experiment")
	}
	cfg := fastCfg()
	r, err := RunFigure1(3000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Witnesses != 16384 {
		t.Fatalf("witnesses = %d, want 16384", r.Witnesses)
	}
	if len(r.UniGen) == 0 || len(r.US) == 0 {
		t.Fatal("empty histogram series")
	}
	// With N ≪ |R_F| both histograms concentrate on count=1; the two
	// distributions must be statistically close.
	if r.TVD > 0.9 {
		t.Fatalf("TVD = %v unexpectedly large", r.TVD)
	}
	var buf bytes.Buffer
	if err := WriteFigure1(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "UniGen") {
		t.Fatal("render missing series")
	}
}

func TestRunTableSmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several benchmarks")
	}
	cfg := fastCfg()
	cfg.Samples = 3
	cfg.UniWitSampleCap = 2
	rows := RunTable(1, cfg)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Benchmark, r.Err)
		}
	}
}
