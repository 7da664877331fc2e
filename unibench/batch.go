package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"unigen"
	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/obs"
	"unigen/internal/sat"
)

// batchSpec is a cmd/unigen -j 1 style workload: one facade sampler,
// one SampleNContext call for a fixed witness count.
type batchSpec struct {
	instance    string
	fullSupport bool // hash over every variable instead of the declared support
	perSecond   int  // witnesses per second of --seconds
}

var (
	batchSset        = batchSpec{instance: "EnqueueSeqSK", perSecond: 26}
	batchFullSupport = batchSpec{instance: "s953a_3_2", fullSupport: true, perSecond: 75}
)

// batchPhase is one timed SampleNContext call.
type batchPhase struct {
	bits   []string
	wall   time.Duration
	delta  unigen.Stats // counters accumulated by the call
	xorLen int64        // XOR-length sum of the call's hash rows
	mem    memCounters
	root   *span // traced calls only
	err    error
}

// xorLenSum recovers the exact XOR-length total from the facade's mean.
func xorLenSum(st unigen.Stats) int64 {
	return int64(math.Round(st.AvgXORLen * float64(st.XORRows)))
}

func samplePhase(s *unigen.Sampler, f *cnf.Formula, vars []cnf.Var, n int, traced bool) batchPhase {
	runtime.GC()
	before := s.Stats()
	m0 := readMem()
	ctx := context.Background()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	t0 := time.Now()
	ws, err := s.SampleNContext(ctx, n)
	wall := time.Since(t0)
	tr.Root().End()
	p := batchPhase{wall: wall, mem: readMem().since(m0), err: err}
	after := s.Stats()
	p.delta = unigen.Stats{
		Samples:      after.Samples - before.Samples,
		Failures:     after.Failures - before.Failures,
		Rounds:       after.Rounds - before.Rounds,
		BSATCalls:    after.BSATCalls - before.BSATCalls,
		XORRows:      after.XORRows - before.XORRows,
		Conflicts:    after.Conflicts - before.Conflicts,
		Propagations: after.Propagations - before.Propagations,
		ArenaBytes:   after.ArenaBytes,
	}
	p.xorLen = xorLenSum(after) - xorLenSum(before)
	if p.delta.XORRows > 0 {
		p.delta.AvgXORLen = float64(p.xorLen) / float64(p.delta.XORRows)
	}
	for _, w := range ws {
		if !w.Satisfies(f) {
			p.err = fmt.Errorf("witness %d does not satisfy the formula", len(p.bits))
			break
		}
		p.bits = append(p.bits, bitstring(w.Bits(vars)))
	}
	if p.err == nil && len(p.bits) != n {
		p.err = fmt.Errorf("got %d witnesses, want %d", len(p.bits), n)
	}
	if traced {
		p.root = fromView(tr.Snapshot())
		p.root.Name = "sample"
	}
	return p
}

func (p batchPhase) exact() []count {
	d := p.delta
	return []count{
		{"rounds", d.Rounds}, {"bsat_calls", d.BSATCalls}, {"xor_rows", d.XORRows},
		{"xor_len_sum", p.xorLen},
		{"conflicts", d.Conflicts}, {"propagations", d.Propagations},
	}
}

func runBatch(cfg config, spec batchSpec) (*result, error) {
	f, err := generate(spec.instance)
	if err != nil {
		return nil, err
	}
	vars := f.SamplingVars()
	opts := unigen.Options{Epsilon: epsilon, Workers: 1, Seed: batchSeed}
	if spec.fullSupport {
		vars = allVars(f)
		opts.SamplingSet = vars
	}
	n := spec.perSecond * cfg.seconds
	prepare := func() (*unigen.Sampler, float64, error) {
		runtime.GC()
		t0 := time.Now()
		s, err := unigen.NewSampler(f, opts)
		return s, time.Since(t0).Seconds(), err
	}
	res := &result{}
	res.note("instance   %s: %d vars, %d clauses, %d XORs, hashing over %d vars, %d witnesses per call",
		spec.instance, f.NumVars, len(f.Clauses), len(f.XORs), len(vars), n)

	if !cfg.traced {
		var setups []float64
		var s *unigen.Sampler
		for range setupReps {
			var sec float64
			if s, sec, err = prepare(); err != nil {
				return nil, err
			}
			setups = append(setups, sec)
		}
		p := samplePhase(s, f, vars, n, false)
		res.attempted = 1
		if p.err != nil {
			res.failed = 1
			res.problem("%v", p.err)
		}
		res.digest, res.exact = digest(p.bits), p.exact()
		res.note("setup      %v s, median %.3f s", setups, median(setups))
		res.note("requests   1 call; its latency is lat_p50_ms")
		res.add("setup_s", "s", median(setups))
		res.add("witnesses_per_s", "1/s", float64(len(p.bits))/p.wall.Seconds())
		res.add("lat_p50_ms", "ms", float64(p.wall)/float64(time.Millisecond))
		res.add("peak_rss_mb", "MiB", peakRSSMiB())
		return res, nil
	}

	// Traced run: identical work twice, untraced then traced, on two
	// samplers prepared alike, so the difference is the tracing alone.
	sa, _, err := prepare()
	if err != nil {
		return nil, err
	}
	a := samplePhase(sa, f, vars, n, false)
	sb, _, err := prepare()
	if err != nil {
		return nil, err
	}
	b := samplePhase(sb, f, vars, n, true)
	res.attempted = 2
	for _, p := range []batchPhase{a, b} {
		if p.err != nil {
			res.failed++
			res.problem("%v", p.err)
		}
	}
	res.digest, res.exact = digest(a.bits), a.exact()
	if digest(b.bits) != res.digest || fmt.Sprint(b.exact()) != fmt.Sprint(res.exact) {
		res.problem("traced call differs from the untraced one: %v vs %v", b.exact(), res.exact)
	}
	reqs := []tracedRequest{{root: b.root, consumed: b.delta.Rounds}}
	rs := collectRounds(reqs)

	// The setup fingerprints F over its hashing set (core.PrepSeed). The
	// timed call parses, fingerprints and builds nothing: the sampler
	// did all that in setup.
	g := *f
	g.SamplingSet = vars
	t := target{f: &g, s: vars, prepSeed: core.PrepSeed(f, opts.SamplingSet), solver: sat.Config{Seed: batchSeed}}
	prep, err := probePrepare(t)
	if err != nil {
		return nil, err
	}
	path, err := probePath(t, qOf(rs, 0))
	if err != nil {
		return nil, err
	}
	d := b.delta
	layerMetrics(res, layerInput{
		reqs: reqs, rounds: rs, wall: b.wall,
		witnesses: d.Samples, roundsN: d.Rounds, failures: d.Failures, bsatCalls: d.BSATCalls,
		conflicts: d.Conflicts, propagations: d.Propagations, xorLenAvg: d.AvgXORLen, arenaBytes: d.ArenaBytes,
		untracedWPS: float64(len(a.bits)) / a.wall.Seconds(), tracedWPS: float64(len(b.bits)) / b.wall.Seconds(),
		mem: a.mem, untracedWitnesses: int64(len(a.bits)),
		prep: []prepProbe{prep}, path: []pathProbe{path},
	})
	return res, writeSpans(res, cfg.workload, reqs)
}
