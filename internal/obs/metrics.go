// Package obs is the zero-dependency observability substrate of the
// sampling service (DESIGN §10): a metrics registry rendered in the
// Prometheus text exposition format, a context-carried span API for
// per-request phase tracing, and a bounded ring of recent slow
// requests. It deliberately implements only the slice of the
// Prometheus data model the daemon needs — atomic counters,
// fixed-bucket cumulative histograms, and scrape-time collected
// families (every gauge is one) — so nothing outside the standard
// library is imported.
//
// The paper's operational claim (Chakraborty–Meel–Vardi, DAC'14) is
// that after a one-time ApproxMC setup every sample is predictably
// cheap; this package is what lets an operator watch that prediction
// hold: request/phase latency histograms, solver-work counters
// (BSAT calls, conflicts, propagations, XOR rows), and cache/admission
// state, all scrapeable at GET /metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefSecondsBuckets are the default latency buckets (seconds): wide
// enough to cover both the µs-scale warm /count path and multi-second
// cold ApproxMC preparations.
var DefSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metric kinds, matching the TYPE line of the exposition format.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Sample is one series a collected family reports at scrape time.
type Sample struct {
	LabelValues []string
	Value       float64
}

// family is one metric family: a name, HELP/TYPE metadata, the label
// names shared by every series, and either owned series (registered
// counters/histograms, keyed by joined label values) or a scrape-time
// collector.
type family struct {
	name    string
	help    string
	kind    string
	labels  []string
	buckets []float64 // histograms only

	mu      sync.Mutex
	series  map[string]any // *Counter | *Histogram
	order   []string       // insertion order of series keys
	collect func() []Sample
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; registration panics on a
// duplicate or invalid name (programmer error, caught at startup).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic("obs: invalid metric name " + strconv.Quote(f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic("obs: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic("obs: duplicate metric family " + f.name)
	}
	if f.series == nil {
		f.series = map[string]any{}
	}
	r.families[f.name] = f
	return f
}

// validName checks the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally must not use ':', but
// the stricter check costs nothing and we never need colons).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free: each bucket is an atomic count and the sum is an atomic
// float64 (CAS on its bits).
type Histogram struct {
	upper  []float64 // bucket upper bounds, ascending, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sumBit atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(buckets []float64) *Histogram {
	up := slices.Clone(buckets)
	sort.Float64s(up)
	up = slices.Compact(up)
	// A trailing +Inf bound is implicit; drop an explicit one.
	for len(up) > 0 && math.IsInf(up[len(up)-1], +1) {
		up = up[:len(up)-1]
	}
	return &Histogram{upper: up, counts: make([]atomic.Int64, len(up)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBit.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBit.Load()) }

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	c := &Counter{}
	f.series[""] = c
	f.order = []string{""}
	return c
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter, labels: labels})}
}

// With returns the counter for the given label values (created on
// first use). The number of values must match the label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family (nil buckets =
// DefSecondsBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefSecondsBuckets
	}
	return &HistogramVec{r.register(&family{name: name, help: help, kind: KindHistogram, buckets: buckets, labels: labels})}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// child returns (creating on first use) the series for values.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// CollectCounters registers a counter family whose series are produced
// at scrape time by collect — for cumulative values owned elsewhere
// (cache hit totals, admission shed counts) that would be awkward to
// mirror into registry-owned atomics.
func (r *Registry) CollectCounters(name, help string, labels []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: KindCounter, labels: labels, collect: collect})
}

// CollectGauges registers a gauge family collected at scrape time
// (in-flight request count, cache size, uptime).
func (r *Registry) CollectGauges(name, help string, labels []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: labels, collect: collect})
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, HELP and
// TYPE lines first, histogram series as cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	var sb strings.Builder
	for _, f := range fams {
		f.render(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func (f *family) render(sb *strings.Builder) {
	sb.WriteString("# HELP ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(escapeHelp(f.help))
	sb.WriteString("\n# TYPE ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(f.kind)
	sb.WriteByte('\n')

	if f.collect != nil {
		for _, s := range f.collect() {
			if len(s.LabelValues) != len(f.labels) {
				continue // malformed collector sample: drop rather than corrupt the scrape
			}
			writeSample(sb, f.name, f.labels, s.LabelValues, "", s.Value)
		}
		return
	}

	f.mu.Lock()
	keys := slices.Clone(f.order)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	for i, key := range keys {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(key, "\x00")
		}
		switch m := series[i].(type) {
		case *Counter:
			writeSample(sb, f.name, f.labels, values, "", float64(m.Value()))
		case *Histogram:
			// Snapshot bucket counts first, then count/sum: the sums may
			// run slightly ahead of the buckets under concurrent
			// observation, but cumulative bucket monotonicity and
			// bucket(+Inf) == count must hold within one scrape, so both
			// are derived from the same bucket snapshot.
			var cum int64
			lf := append(slices.Clone(f.labels), "le")
			for bi, b := range m.upper {
				cum += m.counts[bi].Load()
				lv := append(slices.Clone(values), formatFloat(b))
				writeSample(sb, f.name, lf, lv, "_bucket", float64(cum))
			}
			cum += m.counts[len(m.upper)].Load()
			lv := append(slices.Clone(values), "+Inf")
			writeSample(sb, f.name, lf, lv, "_bucket", float64(cum))
			writeSample(sb, f.name, f.labels, values, "_sum", m.Sum())
			writeSample(sb, f.name, f.labels, values, "_count", float64(cum))
		}
	}
}

func writeSample(sb *strings.Builder, name string, labels, values []string, suffix string, v float64) {
	sb.WriteString(name)
	sb.WriteString(suffix)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

// formatFloat renders a sample value: integers without an exponent
// (the common case for counters), everything else in Go's shortest
// round-trip form, which the exposition format accepts.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(c)
		}
	}
	return sb.String()
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
