// Package experiments reproduces the DAC'14 evaluation artifacts:
// Table 1 and Table 2 (runtime/success/XOR-length comparison of UniGen
// vs UniWit) and Figure 1 (uniformity comparison of UniGen vs the ideal
// uniform sampler US on case110). Each runner returns structured results
// so that both the CLI tools and the benchmark harness can render them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"unigen/internal/baseline"
	"unigen/internal/benchgen"
	"unigen/internal/core"
	"unigen/internal/parallel"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/stats"
)

// Config tunes an experiment run.
type Config struct {
	// Scale selects benchmark sizes (benchgen.ScaleSmall/Medium/Full).
	Scale benchgen.Scale
	// Epsilon is UniGen's tolerance; the paper uses 6.
	Epsilon float64
	// Samples per benchmark for the timing columns.
	Samples int
	// Seed drives all randomness.
	Seed uint64
	// MaxConflicts per BSAT call (0 = unlimited) — the stand-in for the
	// paper's 2500 s per-call timeout.
	MaxConflicts int64
	// MaxPropagations per BSAT call (0 = unlimited); bounds XOR-heavy
	// propagation work that conflicts alone do not capture. UniWit rows
	// exceeding it show as "-" like the paper's timed-out entries.
	MaxPropagations int64
	// UniWitSampleCap bounds how many UniWit samples are attempted per
	// benchmark (UniWit can be orders of magnitude slower; the paper ran
	// it for 20 h, we bound work instead).
	UniWitSampleCap int
	// GaussJordan enables the solver's XOR preprocessing.
	GaussJordan bool
}

// DefaultConfig mirrors the paper's parameters where affordable.
func DefaultConfig() Config {
	return Config{
		Scale:           benchgen.ScaleSmall,
		Epsilon:         6,
		Samples:         25,
		Seed:            1,
		MaxConflicts:    200000,
		MaxPropagations: 30_000_000,
		UniWitSampleCap: 10,
	}
}

// TableRow is one row of Table 1/2.
type TableRow struct {
	Benchmark   string
	NumVars     int // |X|
	SupportSize int // |S|

	// UniGen columns.
	UniGenSuccProb  float64
	UniGenAvgTime   time.Duration // per successful witness, incl. amortized setup
	UniGenSetupTime time.Duration
	UniGenAvgXORLen float64

	// UniWit columns.
	UniWitAvgTime   time.Duration
	UniWitAvgXORLen float64
	UniWitSuccProb  float64
	UniWitFailed    bool // no witness produced within budget ("-" in the paper)

	Err error
}

// Speedup returns UniWit time / UniGen time (the paper's headline
// "two to three orders of magnitude").
func (r TableRow) Speedup() float64 {
	if r.UniGenAvgTime <= 0 || r.UniWitFailed {
		return 0
	}
	return float64(r.UniWitAvgTime) / float64(r.UniGenAvgTime)
}

// RunTable reproduces Table 1 (table=1) or Table 2 (table=2).
func RunTable(table int, cfg Config) []TableRow {
	specs := benchgen.TableRows(table)
	rows := make([]TableRow, 0, len(specs))
	for i, sp := range specs {
		rows = append(rows, RunTableRow(sp, cfg, cfg.Seed+uint64(i)))
	}
	return rows
}

// RunTableRow measures one benchmark.
func RunTableRow(sp benchgen.Spec, cfg Config, seed uint64) TableRow {
	row := TableRow{Benchmark: sp.Name}
	inst, err := sp.Build(cfg.Scale, seed)
	if err != nil {
		row.Err = err
		return row
	}
	row.NumVars = inst.NumVars
	row.SupportSize = inst.SupportSize
	solverCfg := sat.Config{MaxConflicts: cfg.MaxConflicts, MaxPropagations: cfg.MaxPropagations, GaussJordan: cfg.GaussJordan, Seed: seed}

	// --- UniGen: setup once, then sample (the amortization the paper
	// contrasts against UniWit in §5).
	setupStart := time.Now()
	eng, err := parallel.NewEngine(inst.F, parallel.Options{
		Workers:    1,
		MasterSeed: seed ^ 0xdac2014,
		Core:       core.Options{Epsilon: cfg.Epsilon, Solver: solverCfg},
	})
	row.UniGenSetupTime = time.Since(setupStart)
	if err != nil {
		row.Err = fmt.Errorf("unigen setup: %w", err)
		return row
	}
	sampleStart := time.Now()
	ws, err := eng.SampleN(context.Background(), cfg.Samples)
	if err != nil {
		row.Err = fmt.Errorf("unigen sample: %w", err)
		return row
	}
	elapsed := time.Since(sampleStart)
	for _, w := range ws {
		if !w.Satisfies(inst.F) {
			row.Err = fmt.Errorf("unigen returned an invalid witness")
			return row
		}
	}
	st := eng.Stats()
	row.UniGenSuccProb = st.SuccessProb()
	row.UniGenAvgXORLen = st.AvgXORLen()
	// Amortize setup across samples, as the paper's per-witness
	// averages do over "a large number of runs".
	row.UniGenAvgTime = (elapsed + row.UniGenSetupTime) / time.Duration(len(ws))

	// --- UniWit: no amortizable state; every sample searches m afresh.
	uw := baseline.NewUniWit(inst.F, baseline.UniWitOptions{Solver: solverCfg})
	rngW := randx.New(seed ^ 0xca73013)
	wStart := time.Now()
	wGot := 0
	cap := cfg.UniWitSampleCap
	if cap <= 0 {
		cap = 10
	}
	for attempt := 0; wGot < cap && attempt < 4*cap; attempt++ {
		_, err := uw.Sample(rngW)
		if errors.Is(err, baseline.ErrFailed) {
			continue
		}
		if err != nil {
			row.UniWitFailed = true
			break
		}
		wGot++
	}
	wElapsed := time.Since(wStart)
	wst := uw.Stats()
	row.UniWitAvgXORLen = wst.AvgXORLen()
	row.UniWitSuccProb = wst.SuccessProb()
	if wGot > 0 {
		row.UniWitAvgTime = wElapsed / time.Duration(wGot)
	} else {
		row.UniWitFailed = true
	}
	return row
}

// WriteTable renders rows in the paper's column layout.
func WriteTable(w io.Writer, table int, rows []TableRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table %d: UniGen vs UniWit\n", table)
	fmt.Fprintln(tw, "Benchmark\t|X|\t|S|\tUG Succ\tUG Avg(ms)\tUG XORlen\tUW Avg(ms)\tUW XORlen\tUW Succ\tSpeedup")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(tw, "%s\tERROR: %v\n", r.Benchmark, r.Err)
			continue
		}
		uw1, uw2, uw3 := "-", "-", "-"
		if !r.UniWitFailed {
			uw1 = fmt.Sprintf("%.2f", float64(r.UniWitAvgTime.Microseconds())/1000)
			uw2 = fmt.Sprintf("%.1f", r.UniWitAvgXORLen)
			uw3 = fmt.Sprintf("%.2f", r.UniWitSuccProb)
		}
		speed := "-"
		if s := r.Speedup(); s > 0 {
			speed = fmt.Sprintf("%.1fx", s)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.1f\t%s\t%s\t%s\t%s\n",
			r.Benchmark, r.NumVars, r.SupportSize,
			r.UniGenSuccProb,
			float64(r.UniGenAvgTime.Microseconds())/1000,
			r.UniGenAvgXORLen,
			uw1, uw2, uw3, speed)
	}
	return tw.Flush()
}

// Figure1Result holds the two histogram series of Figure 1.
type Figure1Result struct {
	Witnesses   int // |R_F| (16384 for case110)
	Samples     int // N
	UniGen      []stats.Point
	US          []stats.Point
	TVD         float64 // distance between the two empirical distributions
	UniGenFails int
}

// RunFigure1 reproduces the uniformity comparison: N samples from
// UniGen and from US on the case110 instance, histogrammed by
// occurrence count.
func RunFigure1(samples int, cfg Config) (*Figure1Result, error) {
	inst, err := benchgen.Generate("case110", cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	solverCfg := sat.Config{MaxConflicts: cfg.MaxConflicts, MaxPropagations: cfg.MaxPropagations, GaussJordan: cfg.GaussJordan, Seed: cfg.Seed}
	vars := inst.F.SamplingSet

	// US reference (also yields |R_F| exactly).
	us, err := baseline.NewUS(inst.F, 1<<16, solverCfg)
	if err != nil {
		return nil, err
	}
	// Same randomness source type for both samplers, as in §5.
	rngUS := randx.New(cfg.Seed ^ 0x5a5a)
	usCounts := map[string]int{}
	for i := 0; i < samples; i++ {
		usCounts[us.Sample(rngUS).Project(vars)]++
	}

	eng, err := parallel.NewEngine(inst.F, parallel.Options{
		Workers:    1,
		MasterSeed: cfg.Seed ^ 0xa5a5,
		Core:       core.Options{Epsilon: cfg.Epsilon, Solver: solverCfg},
	})
	if err != nil {
		return nil, err
	}
	ws, err := eng.SampleN(context.Background(), samples)
	if err != nil {
		return nil, err
	}
	ugCounts := map[string]int{}
	for _, w := range ws {
		ugCounts[w.Project(vars)]++
	}

	return &Figure1Result{
		Witnesses:   us.Count(),
		Samples:     samples,
		UniGen:      stats.OccurrenceHistogram(ugCounts),
		US:          stats.OccurrenceHistogram(usCounts),
		TVD:         stats.TVDBetween(ugCounts, usCounts, samples, samples),
		UniGenFails: int(eng.Stats().Failures()),
	}, nil
}

// WriteFigure1 renders the two series as aligned columns (count,
// #witnesses) suitable for plotting.
func WriteFigure1(w io.Writer, r *Figure1Result) error {
	fmt.Fprintf(w, "Figure 1: uniformity comparison on case110 (|R_F|=%d, N=%d, TVD=%.4f)\n",
		r.Witnesses, r.Samples, r.TVD)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "series\tcount\t#witnesses")
	for _, p := range r.US {
		fmt.Fprintf(tw, "US\t%d\t%d\n", p.X, p.Y)
	}
	for _, p := range r.UniGen {
		fmt.Fprintf(tw, "UniGen\t%d\t%d\n", p.X, p.Y)
	}
	return tw.Flush()
}
