package obs

import (
	"context"
	"testing"
	"time"
)

// TestNilSafety exercises every span/trace method on nil receivers —
// the disarmed path instrumented code takes when no trace was
// requested. None may panic; all must be no-ops.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.Snapshot() != nil {
		t.Fatal("nil Trace methods not inert")
	}
	var sp *Span
	if sp.Trace() != nil {
		t.Fatal("nil Span.Trace not nil")
	}
	child := sp.StartSpan("x")
	if child != nil {
		t.Fatal("nil Span.StartSpan returned a live span")
	}
	child.SetInt("k", 1)
	child.End()

	ctx := context.Background()
	if SpanFrom(ctx) != nil || TraceFrom(ctx) != nil {
		t.Fatal("empty context yielded a span")
	}
	// WithSpan(nil span) must keep the chain inert.
	ctx = WithSpan(ctx, nil)
	if got := SpanFrom(ctx); got != nil {
		t.Fatalf("nil span roundtrip: %v", got)
	}
}

// TestSpanTree builds a request-shaped tree and checks the snapshot:
// structure, names, counters, and that durations/offsets are sane.
func TestSpanTree(t *testing.T) {
	tr := NewTrace()
	if tr.ID() == "" {
		t.Fatal("empty trace ID")
	}
	root := tr.Root()
	prep := root.StartSpan("prepare")
	prep.SetInt("cache_hit", 0)
	prep.SetInt("cache_hit", 1) // overwrite
	time.Sleep(time.Millisecond)
	prep.End()
	prep.End() // idempotent
	rounds := root.StartSpan("rounds")
	r0 := rounds.StartSpan("round")
	r0.SetInt("idx", 0)
	r0.End()
	rounds.End()
	root.End()

	v := tr.Snapshot()
	if v == nil || v.Name != "request" || len(v.Children) != 2 {
		t.Fatalf("snapshot shape: %+v", v)
	}
	pv, rv := v.Children[0], v.Children[1]
	if pv.Name != "prepare" || rv.Name != "rounds" {
		t.Fatalf("child order: %s, %s", pv.Name, rv.Name)
	}
	if pv.Counters["cache_hit"] != 1 {
		t.Fatalf("counter overwrite: %v", pv.Counters)
	}
	if pv.DurUS <= 0 {
		t.Fatalf("prepare duration not recorded: %d", pv.DurUS)
	}
	if len(rv.Children) != 1 || rv.Children[0].Name != "round" || rv.Children[0].Counters["idx"] != 0 {
		t.Fatalf("round child: %+v", rv.Children[0])
	}
	if rv.StartUS < pv.StartUS {
		t.Fatalf("rounds started before prepare: %d < %d", rv.StartUS, pv.StartUS)
	}
	if v.DurUS < pv.DurUS {
		t.Fatalf("root shorter than child: %d < %d", v.DurUS, pv.DurUS)
	}
}

// TestTraceIDsUnique pins process-uniqueness of trace IDs.
func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTrace().ID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

// TestContextPropagation checks the span chain through context: the
// current span is whatever was installed last, and TraceFrom follows
// it back to the owning trace.
func TestContextPropagation(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if SpanFrom(ctx) != tr.Root() {
		t.Fatal("WithTrace did not install the root span")
	}
	child := SpanFrom(ctx).StartSpan("phase")
	ctx2 := WithSpan(ctx, child)
	if SpanFrom(ctx2) != child {
		t.Fatal("WithSpan did not narrow the current span")
	}
	if TraceFrom(ctx2) != tr {
		t.Fatal("TraceFrom lost the owning trace")
	}
}

// TestConcurrentSpans appends spans from many goroutines (the worker
// pool shape) while snapshotting; run under -race.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Root()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				sp := root.StartSpan("round")
				sp.SetInt("idx", int64(w*100+i))
				sp.End()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		tr.Snapshot()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := len(tr.Snapshot().Children); got != 400 {
		t.Fatalf("lost spans under concurrency: %d/400", got)
	}
}

// BenchmarkObsDisarmedSpan measures the disarmed tracing path — the
// exact call chain SampleRound and the engine run per round when
// no trace was requested: a context lookup plus nil-receiver method
// calls. This must stay in the nanoseconds for the span API to be
// free on untraced requests (E14's overhead budget).
func BenchmarkObsDisarmedSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := SpanFrom(ctx).StartSpan("round")
		sp.SetInt("idx", int64(i))
		cell := sp.StartSpan("cell")
		cell.SetInt("witnesses", 3)
		cell.End()
		sp.End()
	}
}

// BenchmarkObsArmedSpan is the armed counterpart: the same call chain
// with a live trace, bounding what a traced request pays per round.
func BenchmarkObsArmedSpan(b *testing.B) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := SpanFrom(ctx).StartSpan("round")
		sp.SetInt("idx", int64(i))
		cell := sp.StartSpan("cell")
		cell.SetInt("witnesses", 3)
		cell.End()
		sp.End()
	}
}

// TestSpanViewString: the one-line text form names every span with its
// duration and its counters in key order, nests children in brackets,
// and prints no pointer.
func TestSpanViewString(t *testing.T) {
	v := &SpanView{Name: "request", DurUS: 2500, Children: []*SpanView{
		{Name: "prepare", DurUS: 1200, Counters: map[string]int64{"cache_hit": 0, "bsat_calls": 7},
			Children: []*SpanView{{Name: "store", DurUS: 31, Counters: map[string]int64{"hit": 1}}}},
		{Name: "rounds", DurUS: 900},
	}}
	want := "request 2.5ms [prepare 1.2ms bsat_calls=7 cache_hit=0 [store 31µs hit=1], rounds 900µs]"
	if got := v.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := (*SpanView)(nil).String(); got != "<nil>" {
		t.Fatalf("nil String() = %q", got)
	}
}
