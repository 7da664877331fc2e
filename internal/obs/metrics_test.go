package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionRoundtrip renders a registry exercising every
// instrument kind and re-parses it with the strict grammar checker:
// HELP/TYPE metadata, label escaping, and histogram invariants must
// all survive the write → parse roundtrip with the original values.
func TestExpositionRoundtrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Operations.")
	c.Add(7)
	cv := r.NewCounterVec("test_requests_total", "Requests by outcome.", "endpoint", "outcome")
	cv.With("sample", "ok").Add(3)
	cv.With("sample", "shed").Inc()
	cv.With("count", "ok").Add(2)
	// Gauges are collected families: the value is read at scrape time.
	inflight := 5
	r.CollectGauges("test_inflight", "In-flight requests.", nil, func() []Sample {
		return []Sample{{Value: float64(inflight)}}
	})
	inflight -= 2
	// An unlabeled histogram is the single series of a vector without
	// label names.
	h := r.NewHistogramVec("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}).With()
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	// Label values with every escapable character, plus HELP text with
	// a backslash and newline.
	ev := r.NewCounterVec("test_escaped_total", "Weird \\ values\nhere.", "v")
	ev.With(`a\b"c` + "\nd").Add(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}

	if v, ok := SeriesValue(Find(fams, "test_ops_total"), "test_ops_total"); !ok || v != 7 {
		t.Fatalf("test_ops_total = %v, %v; want 7", v, ok)
	}
	rf := Find(fams, "test_requests_total")
	if rf == nil || rf.Type != KindCounter {
		t.Fatalf("test_requests_total family missing or mistyped: %+v", rf)
	}
	if v, ok := SeriesValue(rf, "test_requests_total", "endpoint", "sample", "outcome", "ok"); !ok || v != 3 {
		t.Fatalf("sample/ok = %v, %v; want 3", v, ok)
	}
	if v, ok := SeriesValue(rf, "test_requests_total", "endpoint", "count", "outcome", "ok"); !ok || v != 2 {
		t.Fatalf("count/ok = %v, %v; want 2", v, ok)
	}
	gf := Find(fams, "test_inflight")
	if gf == nil || gf.Type != KindGauge {
		t.Fatalf("gauge family missing or mistyped: %+v", gf)
	}
	if v, ok := SeriesValue(gf, "test_inflight"); !ok || v != 3 {
		t.Fatalf("test_inflight = %v, %v; want 3", v, ok)
	}

	hf := Find(fams, "test_latency_seconds")
	if hf == nil || hf.Type != KindHistogram {
		t.Fatalf("histogram family missing or mistyped: %+v", hf)
	}
	wantBuckets := map[string]float64{"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
	for le, want := range wantBuckets {
		if v, ok := SeriesValue(hf, "test_latency_seconds_bucket", "le", le); !ok || v != want {
			t.Fatalf("bucket le=%s = %v, %v; want %v", le, v, ok, want)
		}
	}
	if v, ok := SeriesValue(hf, "test_latency_seconds_count"); !ok || v != 4 {
		t.Fatalf("_count = %v, %v; want 4", v, ok)
	}
	if v, ok := SeriesValue(hf, "test_latency_seconds_sum"); !ok || math.Abs(v-5.555) > 1e-9 {
		t.Fatalf("_sum = %v, %v; want 5.555", v, ok)
	}

	ef := Find(fams, "test_escaped_total")
	if ef == nil {
		t.Fatal("escaped family missing")
	}
	if ef.Help != "Weird \\ values\nhere." {
		t.Fatalf("HELP roundtrip: %q", ef.Help)
	}
	if v, ok := SeriesValue(ef, "test_escaped_total", "v", `a\b"c`+"\nd"); !ok || v != 9 {
		t.Fatalf("escaped label roundtrip = %v, %v; want 9", v, ok)
	}
}

// TestCollectedFamilies covers scrape-time collectors: values are read
// at render time, and malformed samples (wrong label arity) are
// dropped rather than corrupting the scrape.
func TestCollectedFamilies(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.CollectCounters("test_collected_total", "Collected.", []string{"kind"}, func() []Sample {
		n++
		return []Sample{
			{LabelValues: []string{"a"}, Value: float64(n)},
			{LabelValues: []string{"bad", "arity"}, Value: 99},
		}
	})
	r.CollectGauges("test_collected_gauge", "Gauge.", nil, func() []Sample {
		return []Sample{{Value: 12}}
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(sb.String())
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, sb.String())
	}
	cf := Find(fams, "test_collected_total")
	if v, ok := SeriesValue(cf, "test_collected_total", "kind", "a"); !ok || v != 1 {
		t.Fatalf("collected value = %v, %v; want 1", v, ok)
	}
	if len(cf.Series) != 1 {
		t.Fatalf("malformed collector sample leaked: %d series", len(cf.Series))
	}
	if v, ok := SeriesValue(Find(fams, "test_collected_gauge"), "test_collected_gauge"); !ok || v != 12 {
		t.Fatalf("gauge = %v, %v; want 12", v, ok)
	}
}

// TestCounterIgnoresNegativeDeltas pins the counter contract:
// counters are monotone, so a negative delta is dropped.
func TestCounterIgnoresNegativeDeltas(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter accepted negative delta: %d", c.Value())
	}
}

// TestCounterVecSumBy: SumBy totals the series by one label's value
// and creates no series, so a read leaves the scrape unchanged.
func TestCounterVecSumBy(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("requests_total", "h", "endpoint", "outcome")
	v.With("sample", "ok").Add(3)
	v.With("count", "ok").Add(2)
	v.With("sample", "invalid").Inc()
	var before strings.Builder
	if err := r.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	got := v.SumBy("outcome")
	if len(got) != 2 || got["ok"] != 5 || got["invalid"] != 1 {
		t.Fatalf("SumBy(outcome) = %v, want ok:5 invalid:1", got)
	}
	if got := v.SumBy("endpoint"); got["sample"] != 4 || got["count"] != 2 {
		t.Fatalf("SumBy(endpoint) = %v, want sample:4 count:2", got)
	}
	var after strings.Builder
	if err := r.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("SumBy changed the scrape:\n%s\nthen\n%s", before.String(), after.String())
	}
}

// TestHistogramObserveDuration checks the seconds conversion and
// bucket placement of duration observations.
func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram([]float64{0.001, 1})
	h.ObserveDuration(500 * time.Microsecond)
	h.ObserveDuration(2 * time.Second)
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("sub-ms bucket = %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Fatalf("overflow bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.Sum(); math.Abs(got-2.0005) > 1e-9 {
		t.Fatalf("sum = %v, want 2.0005", got)
	}
}

// TestDuplicateRegistrationPanics pins the fail-fast contract.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CollectGauges("test_dup_total", "y", nil, func() []Sample { return nil })
}

// TestInvalidNamePanics pins name validation at registration time.
func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.NewCounter("0bad name", "x")
}

// TestConcurrentScrape hammers the counter and histogram vectors from
// many goroutines while scraping concurrently; every scrape must parse
// and satisfy the histogram invariants mid-flight (run under -race).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_conc_total", "x", "w")
	hv := r.NewHistogramVec("test_conc_seconds", "x", []float64{0.001, 0.01, 0.1}, "w")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cv.With(lbl).Inc()
				hv.With(lbl).Observe(float64(i%100) / 250)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(sb.String()); err != nil {
			t.Fatalf("scrape %d invalid under concurrency: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestParserRejectsMalformed drives the strict parser with documents
// WritePrometheus can never emit; each must be rejected.
func TestParserRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"sample before HELP":   "orphan_total 1\n",
		"TYPE without HELP":    "# TYPE x counter\nx 1\n",
		"non-contiguous":       "# HELP a x\n# TYPE a counter\na 1\n# HELP b x\n# TYPE b counter\nb 1\n# HELP a x\n# TYPE a counter\na 2\n",
		"timestamp":            "# HELP a x\n# TYPE a counter\na 1 1700000000\n",
		"bad escape":           "# HELP a x\n# TYPE a counter\na{l=\"\\q\"} 1\n",
		"unterminated label":   "# HELP a x\n# TYPE a counter\na{l=\"v} 1\n",
		"bad value":            "# HELP a x\n# TYPE a counter\na one\n",
		"foreign sample":       "# HELP a x\n# TYPE a counter\nb 1\n",
		"histogram no +Inf":    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram not cum":    "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram inf!=count": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"histogram no sum":     "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
	}
	for name, doc := range bad {
		if _, err := ParseExposition(doc); err == nil {
			t.Errorf("%s: parser accepted %q", name, doc)
		}
	}
}
