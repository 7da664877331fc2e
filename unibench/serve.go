package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"unigen/internal/cnf"
	"unigen/internal/core"
	"unigen/internal/randx"
	"unigen/internal/sat"
	"unigen/internal/service"
)

// serveSpec is a daemon workload: requests call ServeHTTP on
// service.NewHandler directly, over a service with the embedded
// defaults (ε 6, one worker per request, cache 64, no gate, no store).
type serveSpec struct {
	// perSecond requests per second of --seconds: 1000 at the declared
	// 8 s, the fewest that leave ten requests beyond the reported p99.
	// One client serves them in 13–35 s, depending on the VM's load.
	perSecond int
	plan      func() (*servePlan, error)
	// warmSessions marks workloads served from pooled sessions, whose
	// solver history makes conflicts and propagations vary run to run.
	warmSessions bool
}

var (
	serveHot   = serveSpec{perSecond: 125, plan: hotPlan}
	serveDelta = serveSpec{perSecond: 125, plan: deltaPlan, warmSessions: true}
)

// request is one HTTP call of a plan.
type request struct {
	path    string // "/sample" or "/count"
	fields  []byte // JSON members naming the formula: "formula":… or "base":…,"assumptions":[…]
	seed    uint64
	formula int // index into servePlan.formulas
	id      int // timed requests: index in the fixed request set
}

// body renders the request's JSON body into dst.
func (r request) body(dst []byte, trace bool) []byte {
	dst = append(append(dst[:0], '{'), r.fields...)
	if r.path == "/sample" {
		dst = append(dst, `,"n":1,"seed":`...)
		dst = strconv.AppendUint(dst, r.seed, 10)
		if trace {
			dst = append(dst, `,"trace":true`...)
		}
	}
	return append(dst, '}')
}

// formula is one formula requests name, with its witness checker.
type formula struct {
	name string
	target
	chk       *checker
	wantCount int64 // exact projected count when known (0 = unknown)
}

// servePlan is a serve workload's fixed inputs.
type servePlan struct {
	formulas []*formula
	setup    []request // cold prepares, in order; setup_s times them
	counts   []request // /count per prepared formula, after setup
	timed    []request // the closed-loop request sequence
	mix      []int     // formulas the timed requests name, evenly
}

// setupSeed is the sample seed of every setup request.
const setupSeed = 1 << 32

// order fills p.timed with n requests in an order drawn from the
// workload seed. The set of requests is the same for every seed: request
// i names formula mix[i mod len(mix)] and samples with seed i. A
// request's rounds depend only on its formula and seed, so every run
// does identical sampling work and the same requests form the latency
// tail; the seed only permutes them.
func (p *servePlan) order(seed uint64, n int) {
	for _, i := range randx.New(seed).Perm(n) {
		k := p.mix[i%len(p.mix)]
		p.timed = append(p.timed, request{path: "/sample", fields: p.setup[k].fields, seed: uint64(i), formula: k, id: i})
	}
}

func formulaFields(text string) []byte {
	b, _ := json.Marshal(text) // strings always marshal
	return append([]byte(`"formula":`), b...)
}

// loadFormula generates an instance and parses its DIMACS text back:
// the parsed formula is the one a request carrying that text names.
func loadFormula(name string) (*formula, error) {
	g, err := generate(name)
	if err != nil {
		return nil, err
	}
	text := cnf.DIMACSString(g)
	f, err := cnf.ParseDIMACSString(text)
	if err != nil {
		return nil, err
	}
	return newFormula(name, f, text), nil
}

func newFormula(name string, f *cnf.Formula, text string) *formula {
	vars := f.SamplingVars()
	return &formula{
		name:   name,
		target: target{f: f, s: vars, prepSeed: core.PrepSeed(f, nil), text: text, fingerprinted: true},
		chk:    newChecker(f, vars),
	}
}

// hotPlan: three formulas weighted evenly, every timed request a cache
// hit carrying full DIMACS, which the service parses and fingerprints
// before building a fresh engine on the cached setup.
func hotPlan() (*servePlan, error) {
	p := &servePlan{}
	for i, name := range []string{"Karatsuba", "LLReverse", "TreeMax"} {
		fm, err := loadFormula(name)
		if err != nil {
			return nil, err
		}
		fm.buildsEngine = true
		p.formulas = append(p.formulas, fm)
		fields := formulaFields(fm.text)
		p.setup = append(p.setup, request{path: "/sample", fields: fields, seed: setupSeed, formula: i})
		p.counts = append(p.counts, request{path: "/count", fields: fields, formula: i})
		p.mix = append(p.mix, i)
	}
	return p, nil
}

// deltaSets are the serve-delta assumption sets: each fixes two
// distinct sampling bits of the base, given as indices into its
// sampling set with a sign.
var deltaSets = [][2]int{{1, -2}, {-3, 4}, {5, 6}, {-7, -8}}

// deltaPlan: Karatsuba posted once, conditioned on four assumption sets;
// timed requests name base + assumptions, weighted evenly over the sets.
// They carry no DIMACS and run on pooled sessions, so the service
// parses nothing and builds no engine for them; it conjoins and
// fingerprints base ∧ A.
func deltaPlan() (*servePlan, error) {
	base, err := loadFormula("Karatsuba")
	if err != nil {
		return nil, err
	}
	p := &servePlan{formulas: []*formula{base}}
	fp := cnf.FingerprintString(base.f)
	p.setup = append(p.setup, request{path: "/sample", fields: formulaFields(base.text), seed: setupSeed})
	p.counts = append(p.counts, request{path: "/count", fields: p.setup[0].fields})
	for j, set := range deltaSets {
		var lits []int
		conj := base.f.Clone()
		for _, k := range set {
			v := int(base.s[abs(k)-1])
			if k < 0 {
				v = -v
			}
			lits = append(lits, v)
			conj.AddClause(v)
		}
		fm := newFormula(fmt.Sprintf("Karatsuba%v", lits), conj, "")
		fm.wantCount = 1 << (len(base.s) - len(set))
		p.formulas = append(p.formulas, fm)
		as, _ := json.Marshal(lits)
		fields := fmt.Appendf(nil, `"base":%q,"assumptions":%s`, fp, as)
		p.setup = append(p.setup, request{path: "/sample", fields: fields, seed: setupSeed, formula: j + 1})
		p.counts = append(p.counts, request{path: "/count", fields: fields, formula: j + 1})
		p.mix = append(p.mix, j+1)
	}
	return p, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checker validates witnesses given as projections onto a formula's
// sampling set: the projection, as assumptions, must extend to a model
// of the formula, and that model must pass Satisfies.
type checker struct {
	f     *cnf.Formula
	vars  []cnf.Var
	s     *sat.Solver
	valid map[string]bool
}

func newChecker(f *cnf.Formula, vars []cnf.Var) *checker {
	return &checker{f: f, vars: vars, s: sat.New(f, sat.Config{}), valid: map[string]bool{}}
}

func (c *checker) ok(bits string) bool {
	if v, seen := c.valid[bits]; seen {
		return v
	}
	v := len(bits) == len(c.vars)
	if v {
		assumps := make([]cnf.Lit, len(bits))
		for i, x := range c.vars {
			assumps[i] = cnf.MkLit(x, bits[i] == '0')
		}
		v = c.s.Solve(assumps...) == sat.Sat && c.s.Model().Satisfies(c.f)
	}
	c.valid[bits] = v
	return v
}

// reply is one ServeHTTP result.
type reply struct {
	status int
	body   []byte
	us     float64 // ServeHTTP latency at the client
}

// serveHTTP builds the request, then times ServeHTTP alone.
func serveHTTP(h http.Handler, method, path string, body []byte) reply {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	us := micros(time.Since(t0))
	return reply{status: rec.Code, body: rec.Body.Bytes(), us: us}
}

// closedLoop sends reqs from one closed-loop client: each request goes
// out only after the previous one returned.
//
// One client, not one per vCPU: with two concurrent requests on two
// vCPUs, each request's engine worker starts a speculative round right
// after sending the last round it needs, and the request goroutine
// waiting for that result runs only when the Go scheduler preempts the
// worker (10 ms time slices). Latencies then bunch at 10 ms steps and
// the median jumps between steps from run to run. With one client the
// waiting goroutine takes the idle vCPU at once.
func closedLoop(h http.Handler, reqs []request, traced bool) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	var buf []byte
	t0 := time.Now()
	for i, r := range reqs {
		buf = r.body(buf, traced)
		out[i] = serveHTTP(h, http.MethodPost, r.path, buf)
	}
	return out, time.Since(t0)
}

func readStats(h http.Handler) (service.StatsHTTPResponse, error) {
	var st service.StatsHTTPResponse
	rep := serveHTTP(h, http.MethodGet, "/stats", nil)
	if rep.status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", rep.status)
	}
	return st, json.Unmarshal(rep.body, &st)
}

// sampled is a decoded, checked /sample reply.
type sampled struct {
	resp service.SampleHTTPResponse
	err  error
}

// checkSample decodes a /sample reply and checks status, witness count
// and every witness against the formula the request named.
func (p *servePlan) checkSample(r request, rep reply) sampled {
	var s sampled
	if rep.status != http.StatusOK {
		s.err = fmt.Errorf("%s: status %d: %s", p.formulas[r.formula].name, rep.status, bytes.TrimSpace(rep.body))
		return s
	}
	if err := json.Unmarshal(rep.body, &s.resp); err != nil {
		s.err = fmt.Errorf("decoding reply: %w", err)
		return s
	}
	fm := p.formulas[r.formula]
	if len(s.resp.Witnesses) != 1 {
		s.err = fmt.Errorf("%s: %d witnesses, want 1", fm.name, len(s.resp.Witnesses))
		return s
	}
	if len(s.resp.Vars) != len(fm.s) {
		s.err = fmt.Errorf("%s: witnesses over %d vars, want %d", fm.name, len(s.resp.Vars), len(fm.s))
		return s
	}
	for i, v := range s.resp.Vars {
		if cnf.Var(v) != fm.s[i] {
			s.err = fmt.Errorf("%s: witness vars %v, want %v", fm.name, s.resp.Vars, fm.s)
			return s
		}
	}
	for _, w := range s.resp.Witnesses {
		if !fm.chk.ok(w) {
			s.err = fmt.Errorf("%s: witness %s does not extend to a model", fm.name, w)
			return s
		}
	}
	return s
}

// servePhase is one timed closed-loop pass over the plan's requests.
type servePhase struct {
	replies []sampled
	lat     []float64 // ServeHTTP µs per request
	wall    time.Duration
	mem     memCounters
	before  service.StatsHTTPResponse
	after   service.StatsHTTPResponse
	bits    []string // witness per request, by request id ("" when failed)
	failed  int
	totals  service.HTTPStatsBlock
}

func (p *servePlan) phase(h http.Handler, traced bool) (servePhase, error) {
	var ph servePhase
	var err error
	if ph.before, err = readStats(h); err != nil {
		return ph, err
	}
	runtime.GC()
	m0 := readMem()
	replies, wall := closedLoop(h, p.timed, traced)
	ph.mem = readMem().since(m0)
	ph.wall = wall
	if ph.after, err = readStats(h); err != nil {
		return ph, err
	}
	ph.bits = make([]string, len(p.timed))
	for i, rep := range replies {
		r := p.timed[i]
		s := p.checkSample(r, rep)
		if s.err == nil && !s.resp.CacheHit {
			s.err = fmt.Errorf("request %d missed the cache", r.id)
		}
		ph.replies = append(ph.replies, s)
		ph.lat = append(ph.lat, rep.us)
		if s.err != nil {
			ph.failed++
			continue
		}
		ph.bits[r.id] = s.resp.Witnesses[0]
		st := s.resp.Stats
		ph.totals.Rounds += st.Rounds
		ph.totals.Samples += st.Samples
		ph.totals.Failures += st.Failures
		ph.totals.BSATCalls += st.BSATCalls
		ph.totals.XORRows += st.XORRows
		ph.totals.Conflicts += st.Conflicts
		ph.totals.Propagations += st.Propagations
	}
	return ph, nil
}

func (ph servePhase) exact(warmSessions bool) []count {
	t := ph.totals
	out := []count{{"rounds", t.Rounds}, {"bsat_calls", t.BSATCalls}, {"xor_rows", t.XORRows}}
	if !warmSessions {
		out = append(out, count{"conflicts", t.Conflicts}, count{"propagations", t.Propagations})
	}
	return out
}

// prepared is one preparation of a plan on a fresh service.
type prepared struct {
	svc     *service.Service
	h       http.Handler
	seconds float64 // setup wall time
	flights float64 // cold prepare and delta spans (traced setups only), s
}

// prepare runs the plan's setup requests on a fresh service.
func (p *servePlan) prepare(res *result, traced bool) (prepared, error) {
	svc, err := service.New(service.Config{})
	if err != nil {
		return prepared{}, err
	}
	pr := prepared{svc: svc, h: service.NewHandler(svc)}
	runtime.GC()
	replies := make([]reply, len(p.setup))
	t0 := time.Now()
	for i, r := range p.setup {
		replies[i] = serveHTTP(pr.h, http.MethodPost, r.path, r.body(nil, traced))
	}
	pr.seconds = time.Since(t0).Seconds()
	for i, r := range p.setup {
		res.attempted++
		s := p.checkSample(r, replies[i])
		if s.err == nil && s.resp.CacheHit {
			s.err = fmt.Errorf("setup request %d hit the cache", i)
		}
		if s.err != nil {
			res.failed++
			res.problem("setup: %v", s.err)
			continue
		}
		if t := s.resp.Trace; t != nil {
			for _, c := range t.Children {
				if c.Name == "prepare" || c.Name == "delta" {
					pr.flights += float64(c.DurUS) / 1e6
				}
			}
		}
	}
	return pr, nil
}

// checkCounts asks /count for every prepared formula and checks each
// count against its known value within ApproxMC's (1+ε′) tolerance.
func (p *servePlan) checkCounts(res *result, h http.Handler) []*big.Int {
	out := make([]*big.Int, len(p.counts))
	for i, r := range p.counts {
		res.attempted++
		fm := p.formulas[r.formula]
		rep := serveHTTP(h, http.MethodPost, r.path, r.body(nil, false))
		var cr service.CountHTTPResponse
		if rep.status != http.StatusOK || json.Unmarshal(rep.body, &cr) != nil {
			res.failed++
			res.problem("/count %s: status %d", fm.name, rep.status)
			continue
		}
		c, ok := new(big.Int).SetString(cr.Count, 10)
		if !ok {
			res.failed++
			res.problem("/count %s: bad count %q", fm.name, cr.Count)
			continue
		}
		out[i] = c
		if cr.Fingerprint != cnf.FingerprintString(fm.f) {
			res.problem("/count %s: service fingerprint %s differs from the benchmark's formula", fm.name, cr.Fingerprint)
		}
		if w := fm.wantCount; w > 0 {
			lo, hi := float64(w)/1.8, float64(w)*1.8
			if v, _ := new(big.Float).SetInt(c).Float64(); v < lo || v > hi {
				res.problem("/count %s: %s outside [%.0f, %.0f]", fm.name, c, lo, hi)
			}
		}
		res.note("count      %s = %s (exact=%t)", fm.name, c, cr.Exact)
	}
	return out
}

func runServe(cfg config, spec serveSpec) (*result, error) {
	p, err := spec.plan()
	if err != nil {
		return nil, err
	}
	p.order(cfg.seed, spec.perSecond*cfg.seconds)
	res := &result{}
	res.note("requests   %d timed from one client, %d setup, %d count checks", len(p.timed), len(p.setup), len(p.counts))
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var pr prepared
	var setups []float64
	for range reps {
		if pr.svc != nil {
			_ = pr.svc.Close(context.Background()) // idle: returns at once
		}
		if pr, err = p.prepare(res, cfg.traced); err != nil {
			return nil, err
		}
		setups = append(setups, pr.seconds)
	}
	defer pr.svc.Close(context.Background())
	h := pr.h
	res.note("setup      %v s, median %.3f s", setups, median(setups))
	counts := p.checkCounts(res, h)

	a, err := p.phase(h, false)
	if err != nil {
		return nil, err
	}
	res.attempted += len(p.timed)
	res.failed += a.failed
	res.digest, res.exact = digest(a.bits), a.exact(spec.warmSessions)
	for i, s := range a.replies {
		if s.err != nil {
			res.problem("request %d: %v", p.timed[i].id, s.err)
			break
		}
	}
	wps := float64(a.totals.Samples) / a.wall.Seconds()
	if !cfg.traced {
		// The tail is reported but not a metric: above the median, a
		// quantile reads the machine's per-request noise, whose tail
		// grows with a neighbour's load (README: "Tail latency").
		p90, _ := percentile(a.lat, 0.90)
		p99, beyond := percentile(a.lat, 0.99)
		res.note("latency    %d requests; p90 %.3f ms, p99 %.3f ms with %d beyond it (reported, not bounded)",
			len(a.lat), p90/1e3, p99/1e3, beyond)
		res.add("setup_s", "s", median(setups))
		res.add("witnesses_per_s", "1/s", wps)
		res.add("lat_p50_ms", "ms", median(a.lat)/1e3)
		res.add("peak_rss_mb", "MiB", peakRSSMiB())
		return res, nil
	}

	b, err := p.phase(h, true)
	if err != nil {
		return nil, err
	}
	res.attempted += len(p.timed)
	res.failed += b.failed
	if digest(b.bits) != res.digest || fmt.Sprint(b.exact(spec.warmSessions)) != fmt.Sprint(res.exact) {
		res.problem("traced pass differs from the untraced one: %v vs %v", b.exact(spec.warmSessions), res.exact)
	}
	var reqs []tracedRequest
	for i, s := range b.replies {
		if s.err != nil || s.resp.Trace == nil {
			continue
		}
		root := &span{Name: "http", US: b.lat[i], Children: []*span{fromView(s.resp.Trace)}}
		reqs = append(reqs, tracedRequest{root: root, consumed: s.resp.Stats.Rounds, formula: p.timed[i].formula})
	}
	rs := collectRounds(reqs)

	var preps []prepProbe
	var path []pathProbe
	for i, r := range p.counts {
		fm := p.formulas[r.formula]
		pp, err := probePrepare(fm.target)
		if err != nil {
			return nil, err
		}
		if counts[i] != nil && pp.count.Cmp(counts[i]) != 0 {
			res.problem("%s: ApproxMC with the setup's RNG counts %s, the service %s", fm.name, pp.count, counts[i])
		}
		preps = append(preps, pp)
	}
	for _, k := range p.mix {
		pp, err := probePath(p.formulas[k].target, qOf(rs, k))
		if err != nil {
			return nil, err
		}
		path = append(path, pp)
	}
	hits := a.after.Hits - a.before.Hits
	lookups := hits + a.after.Misses - a.before.Misses
	poolHits := a.after.Delta.PoolHits - a.before.Delta.PoolHits
	checkouts := poolHits + a.after.Delta.PoolMisses - a.before.Delta.PoolMisses
	layerMetrics(res, layerInput{
		reqs: reqs, rounds: rs, wall: b.wall,
		witnesses: b.totals.Samples, roundsN: b.totals.Rounds, failures: b.totals.Failures, bsatCalls: b.totals.BSATCalls,
		conflicts: b.totals.Conflicts, propagations: b.totals.Propagations, arenaBytes: b.after.Solver.ArenaBytes,
		untracedWPS: wps, tracedWPS: float64(b.totals.Samples) / b.wall.Seconds(),
		mem: a.mem, untracedWitnesses: a.totals.Samples,
		servicePrepareS: pr.flights,
		cacheHitRatio:   ratio(float64(hits), float64(lookups)),
		poolHitRatio:    ratio(float64(poolHits), float64(checkouts)),
		prep:            preps, path: path,
	})
	return res, writeSpans(res, cfg.workload, reqs)
}
