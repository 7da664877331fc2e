package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"unigen/internal/bsat"
	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/counter"
	"unigen/internal/hashfam"
	"unigen/internal/obs"
	"unigen/internal/parallel"
	"unigen/internal/randx"
	"unigen/internal/sat"
)

// span is the benchmark's in-memory span: the benchmark's own calls and
// the trees the program returns for a traced request, in one shape.
type span struct {
	Name     string           `json:"name"`
	US       float64          `json:"us"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*span          `json:"children,omitempty"`
}

func fromView(v *obs.SpanView) *span {
	s := &span{Name: v.Name, US: float64(v.DurUS), Counters: v.Counters}
	for _, c := range v.Children {
		s.Children = append(s.Children, fromView(c))
	}
	return s
}

// self is the span's duration minus the part its children cover.
func (s *span) self() float64 {
	d := s.US
	for _, c := range s.Children {
		d -= c.US
	}
	return max(d, 0)
}

// walk visits s and its descendants depth-first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.Children {
		c.walk(fn)
	}
}

// child returns the first direct child with the given name.
func (s *span) child(name string) *span {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// layerOf names the layer each span's self time belongs to. "sample"
// and "http" are the benchmark's spans around SampleNContext and
// ServeHTTP; the rest are the program's own (DESIGN §10).
var layerOf = map[string]string{
	"sample":    "parallel",
	"http":      "service.http",
	"request":   "service",
	"admission": "service.admission",
	"prepare":   "service.prepare",
	"delta":     "service.delta",
	"store":     "store",
	"rounds":    "parallel",
	"round":     "core",
	"cell":      "bsat+sat",
}

var layerOrder = []string{"service.http", "service", "service.admission", "service.prepare", "service.delta", "store", "parallel", "core", "bsat+sat"}

// tracedRequest is one traced call: its root span, the rounds the
// program reports consumed, and the formula it named.
type tracedRequest struct {
	root     *span
	consumed int64
	formula  int
}

// roundStats are the counts taken from consumed rounds' spans.
type roundStats struct {
	roundUS, cellUS          []float64
	started, cells, accepted int64
	witnesses                int64
	minI                     map[int]int64 // formula → smallest cell i (= q−3)
}

func collectRounds(reqs []tracedRequest) roundStats {
	kp, _ := core.ComputeKappaPivot(epsilon)
	rs := roundStats{minI: map[int]int64{}}
	for _, r := range reqs {
		r.root.walk(func(s *span) {
			if s.Name != "round" {
				return
			}
			rs.started++
			if s.Counters["idx"] >= r.consumed {
				return // speculative: started past the consumed prefix, discarded
			}
			rs.roundUS = append(rs.roundUS, s.US)
			for _, c := range s.Children {
				if c.Name != "cell" {
					continue
				}
				n := c.Counters["witnesses"]
				rs.cells++
				rs.witnesses += n
				rs.cellUS = append(rs.cellUS, c.US)
				if float64(n) >= kp.LoThresh && n <= int64(kp.HiThresh) {
					rs.accepted++
				}
				if i, ok := rs.minI[r.formula]; !ok || c.Counters["i"] < i {
					rs.minI[r.formula] = c.Counters["i"]
				}
			}
		})
	}
	return rs
}

// selfTimes sums self time per layer over every traced request and
// prints the table as shares of the traced phase's wall time; what the
// spans do not cover of it is the unattributed remainder.
func selfTimes(res *result, reqs []tracedRequest, wall time.Duration) {
	self := map[string]float64{}
	covered := 0.0
	for _, r := range reqs {
		covered += r.root.US
		r.root.walk(func(s *span) { self[layerOf[s.Name]] += s.self() })
	}
	wallUS := micros(wall)
	res.note("layers     self time over %d traced requests, share of wall time", len(reqs))
	for _, l := range layerOrder {
		if us, ok := self[l]; ok {
			res.note("layer      %-18s %12.1f ms %6.2f%%", l, us/1e3, 100*ratio(us, wallUS))
		}
	}
	rest := wallUS - covered
	res.note("layer      %-18s %12.1f ms %6.2f%%", "remainder", rest/1e3, 100*ratio(rest, wallUS))
}

// target is one formula a workload prepares or samples, with the
// sampling set it hashes over and the seed its setup RNG starts from.
// The last three fields say what a timed request does with the formula
// besides sampling it; probePath prices only those, so a layer the
// timed path does not cross reports 0.
type target struct {
	f        *cnf.Formula
	s        []cnf.Var
	prepSeed uint64
	solver   sat.Config

	text          string // DIMACS each request carries and the service parses ("" when none)
	fingerprinted bool   // the service fingerprints it per request
	buildsEngine  bool   // the service builds a fresh engine for each request
}

// prepProbe is one preparation's two phases, each benchmark-timed on
// its own: the easy-case enumeration and counter.ApproxMC.
type prepProbe struct {
	easyS, approxmcS float64
	rounds, rows     int
	count            *big.Int
}

// pathProbe times, on one formula and outside any request, the public
// entry points a request crosses besides the ones its spans show.
type pathProbe struct {
	parseUS, fingerprintUS float64 // cnf.ParseDIMACSString, cnf.Fingerprint
	engineBuildUS          float64 // parallel.NewEngineFromSetup, 1 worker
	drawUS                 float64 // hashfam.Draw at q
	drawLen, drawRows      int64
}

// timeMedian is fn's median wall time over 25 calls, in µs.
func timeMedian(fn func()) float64 {
	us := make([]float64, 25)
	for i := range us {
		t0 := time.Now()
		fn()
		us[i] = micros(time.Since(t0))
	}
	return median(us)
}

// probePrepare prices the two phases of a preparation of t (Algorithm
// 1 lines 4–9) the way core.NewSetup runs them: the easy-case
// enumeration of up to hiThresh+1 witnesses on a fresh BSAT session,
// then counter.ApproxMC with the setup's own RNG and parameters
// (ε′ = 0.8, δ′ = 0.2). core.Stats and the service's prepare totals do
// not attribute the ApproxMC work, so the benchmark prices the counter
// layer directly.
func probePrepare(t target) (prepProbe, error) {
	kp, err := core.ComputeKappaPivot(epsilon)
	if err != nil {
		return prepProbe{}, err
	}
	t0 := time.Now()
	sess := bsat.NewSession(t.f, bsat.Options{SamplingSet: t.s, Solver: t.solver})
	if n := len(sess.Enumerate(kp.HiThresh+1, nil).Witnesses); n <= kp.HiThresh {
		return prepProbe{}, fmt.Errorf("%d witnesses: the easy case, which runs no ApproxMC", n)
	}
	easy := time.Since(t0).Seconds()
	t0 = time.Now()
	r, err := counter.ApproxMC(t.f, randx.New(t.prepSeed), counter.ApproxMCOptions{
		Epsilon: 0.8, Delta: 0.2, SamplingSet: t.s, Solver: t.solver,
	})
	if err != nil {
		return prepProbe{}, err
	}
	return prepProbe{easyS: easy, approxmcS: time.Since(t0).Seconds(), rounds: r.Rounds, rows: r.TotalXORRows, count: r.Count}, nil
}

// probePath fills a pathProbe for formula t hashed at width q.
func probePath(t target, q int) (pathProbe, error) {
	var p pathProbe
	if t.text != "" {
		if _, err := cnf.ParseDIMACSString(t.text); err != nil {
			return p, err
		}
		p.parseUS = timeMedian(func() { _, _ = cnf.ParseDIMACSString(t.text) })
	}
	if t.fingerprinted {
		p.fingerprintUS = timeMedian(func() { cnf.Fingerprint(t.f) })
	}
	if t.buildsEngine {
		// Session builds do not depend on the estimate, so a one-round
		// ApproxMC setup is enough to build engines from.
		su, err := core.NewSetup(t.f, randx.New(t.prepSeed), core.Options{
			Epsilon: epsilon, SamplingSet: t.s, Solver: t.solver, ApproxMCRounds: 1,
		})
		if err != nil {
			return p, err
		}
		p.engineBuildUS = timeMedian(func() { parallel.NewEngineFromSetup(su, parallel.Options{Workers: 1}) })
	}
	if q < 1 {
		q = 1
	}
	rng := randx.New(1)
	const batch = 64
	per := make([]float64, 32)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			h := hashfam.Draw(rng, t.s, q)
			p.drawLen += int64(h.TotalLen())
			p.drawRows += int64(h.M())
		}
		per[b] = micros(time.Since(t0)) / batch
	}
	p.drawUS = median(per)
	return p, nil
}

// layerInput is everything a traced run hands to layerMetrics. Fields a
// workload's path does not have stay zero.
type layerInput struct {
	reqs   []tracedRequest // traced timed phase
	rounds roundStats      // collectRounds(reqs)
	wall   time.Duration   // the traced phase's wall time

	// Program counts over the traced timed phase.
	witnesses, roundsN, failures, bsatCalls int64
	conflicts, propagations                 int64
	xorLenAvg                               float64 // 0 when the program reports none
	arenaBytes                              int64

	// Untraced timed phase of the same run.
	untracedWPS, tracedWPS float64
	mem                    memCounters
	untracedWitnesses      int64

	servicePrepareS float64 // cold prepare/delta flight spans in setup
	cacheHitRatio   float64
	poolHitRatio    float64

	prep []prepProbe // one per prepared formula
	path []pathProbe // one per timed formula, weighted evenly
}

// layerMetrics adds every per-layer metric, in one fixed order and with
// one fixed set of names for every workload. A layer the workload's
// path does not cross reports 0.
func layerMetrics(res *result, in layerInput) {
	rs := in.rounds
	n := float64(len(in.reqs))
	var httpUS, overheadUS, admissionUS, deltaUS []float64
	for _, r := range in.reqs {
		req := r.root.child("request") // echoed by the service; batch calls have none
		if req == nil {
			continue
		}
		httpUS = append(httpUS, r.root.US-req.US)
		rounds := 0.0
		if rd := req.child("rounds"); rd != nil {
			rounds = rd.US
		}
		overheadUS = append(overheadUS, req.US-rounds)
		if a := req.child("admission"); a != nil {
			admissionUS = append(admissionUS, a.US)
		}
		if d := req.child("delta"); d != nil {
			deltaUS = append(deltaUS, d.US)
		}
	}
	var easyS, amcS float64
	var amcRounds, amcRows int
	for _, p := range in.prep {
		easyS += p.easyS
		amcS += p.approxmcS
		amcRounds += p.rounds
		amcRows += p.rows
	}
	avg := func(get func(pathProbe) float64) float64 {
		var xs []float64
		for _, p := range in.path {
			xs = append(xs, get(p))
		}
		return mean(xs)
	}
	var drawLen, drawRows int64
	for _, p := range in.path {
		drawLen += p.drawLen
		drawRows += p.drawRows
	}
	xorLen := in.xorLenAvg
	if xorLen == 0 {
		// The service exports no XOR-length counter; fall back to the
		// rows the benchmark drew over the same sampling sets.
		xorLen = ratio(float64(drawLen), float64(drawRows))
	}

	res.add("cnf.parse_us", "us", avg(func(p pathProbe) float64 { return p.parseUS }))
	res.add("cnf.fingerprint_us", "us", avg(func(p pathProbe) float64 { return p.fingerprintUS }))
	res.add("service.http_us", "us", mean(httpUS))
	res.add("service.overhead_us", "us", mean(overheadUS))
	res.add("service.admission_us", "us", mean(admissionUS))
	res.add("service.delta_us", "us", mean(deltaUS))
	res.add("service.prepare_s", "s", in.servicePrepareS)
	res.add("service.cache_hit_ratio", "ratio", in.cacheHitRatio)
	res.add("service.pool_hit_ratio", "ratio", in.poolHitRatio)
	res.add("parallel.engine_build_us", "us", avg(func(p pathProbe) float64 { return p.engineBuildUS }))
	res.add("parallel.speculative_rounds", "count", ratio(float64(rs.started-in.roundsN), n))
	res.add("core.round_us", "us", median(rs.roundUS))
	res.add("core.rounds_per_witness", "ratio", ratio(float64(in.roundsN), float64(in.witnesses)))
	res.add("core.bot_ratio", "ratio", ratio(float64(in.failures), float64(in.roundsN)))
	res.add("core.cells_per_round", "ratio", ratio(float64(in.bsatCalls), float64(in.roundsN)))
	res.add("core.easy_probe_s", "s", easyS)
	res.add("counter.approxmc_s", "s", amcS)
	res.add("counter.rounds", "count", float64(amcRounds))
	res.add("counter.xor_rows", "count", float64(amcRows))
	res.add("hashfam.xor_len_avg", "vars", xorLen)
	res.add("hashfam.draw_us", "us", avg(func(p pathProbe) float64 { return p.drawUS }))
	res.add("bsat.call_us", "us", median(rs.cellUS))
	res.add("bsat.witnesses_per_call", "ratio", ratio(float64(rs.witnesses), float64(rs.cells)))
	res.add("bsat.cell_accept_ratio", "ratio", ratio(float64(rs.accepted), float64(rs.cells)))
	res.add("sat.conflicts_per_call", "count", ratio(float64(in.conflicts), float64(in.bsatCalls)))
	res.add("sat.propagations_per_call", "count", ratio(float64(in.propagations), float64(in.bsatCalls)))
	res.add("sat.arena_kb", "KiB", float64(in.arenaBytes)/1024)
	res.add("go.allocs_per_witness", "count", ratio(float64(in.mem.mallocs), float64(in.untracedWitnesses)))
	res.add("go.gc_cycles", "count", float64(in.mem.gcs))
	res.add("obs.trace_overhead_pct", "%", 100*(ratio(in.untracedWPS, in.tracedWPS)-1))

	if rs.cells != in.bsatCalls {
		res.problem("cell spans of consumed rounds %d != BSAT calls %d", rs.cells, in.bsatCalls)
	}
	if int64(len(rs.roundUS)) != in.roundsN {
		res.problem("consumed round spans %d != rounds %d", len(rs.roundUS), in.roundsN)
	}
	selfTimes(res, in.reqs, in.wall)
}

// qOf is the hash width a formula's rounds start from: the first cell
// of every round hashes with q−3 rows.
func qOf(rs roundStats, formula int) int { return int(rs.minI[formula]) + 3 }

// writeSpans writes the traced requests' span trees as JSON to
// spans-<workload>.json beside the benchmark binary: .bench_build/ under
// run.sh.
func writeSpans(res *result, workload string, reqs []tracedRequest) error {
	roots := make([]*span, len(reqs))
	for i, r := range reqs {
		roots[i] = r.root
	}
	b, err := json.Marshal(roots)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(filepath.Dir(exe), "spans-"+workload+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.note("spans      %s", path)
	return nil
}
