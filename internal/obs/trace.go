package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request phase tracing (DESIGN §10). A Trace is a tree of timed
// spans recording where a request spent its time (admission wait,
// preparation, sampling rounds, per-cell BSAT enumerations) together
// with integer counters (solver-work deltas). The API is carried
// through context and is nil-safe end to end: every method on a nil
// *Span or nil *Trace is a no-op, so instrumented code calls
// SpanFrom(ctx).StartSpan(...) unconditionally and pays only a context
// lookup plus nil checks when no trace was requested — the disarmed
// path benchmarked by BenchmarkObsDisarmedSpan.

// traceSalt distinguishes trace IDs across process restarts; traceSeq
// distinguishes them within one.
var (
	traceSalt = func() uint64 {
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	traceSeq atomic.Uint64
)

// Trace is one request's span tree. Safe for concurrent use: worker
// pools append round spans from many goroutines.
type Trace struct {
	id   string
	mu   sync.Mutex
	root *Span
}

// Span is one timed phase of a trace. Create via StartSpan; a nil
// *Span is a valid no-op receiver for every method.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	counters []counterKV
	children []*Span
}

type counterKV struct {
	key string
	val int64
}

// NewTrace creates a trace with a fresh process-unique ID and an open
// root span named "request".
func NewTrace() *Trace {
	seq := traceSeq.Add(1)
	tr := &Trace{id: fmt.Sprintf("%08x-%08x", uint32(traceSalt>>32)^uint32(traceSalt), uint32(seq)+uint32(traceSalt>>13))}
	tr.root = &Span{tr: tr, name: "request", start: time.Now()}
	return tr
}

// ID returns the trace identifier ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on nil).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Trace returns the trace owning this span (nil on nil).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// StartSpan opens a child span. On a nil receiver it returns nil, so
// chains of StartSpan/SetInt/End cost only nil checks when disarmed.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// SetInt attaches (or overwrites) an integer counter on the span —
// solver-work deltas, cell sizes, round indices. No-op on nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	for i := range s.counters {
		if s.counters[i].key == key {
			s.counters[i].val = v
			s.tr.mu.Unlock()
			return
		}
	}
	s.counters = append(s.counters, counterKV{key, v})
	s.tr.mu.Unlock()
}

// spanCtxKey carries the current span through context.
type spanCtxKey struct{}

// WithSpan returns a context carrying sp as the current span.
// Instrumented layers parent their spans under it.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// WithTrace returns a context carrying tr's root as the current span.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return WithSpan(ctx, tr.Root())
}

// SpanFrom returns the current span, or nil when ctx carries none —
// the disarmed case every obs call chain degrades gracefully from.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// TraceFrom returns the trace owning the current span, or nil.
func TraceFrom(ctx context.Context) *Trace {
	return SpanFrom(ctx).Trace()
}

// SpanView is the JSON-able snapshot of one span: durations in
// microseconds, start offset relative to the trace root.
type SpanView struct {
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"` // offset from the root span's start
	DurUS    int64            `json:"dur_us"`   // 0 while the span is still open
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*SpanView      `json:"children,omitempty"`
}

// String renders the span tree on one line for text logs: each span as
// its name, its duration (0s while open) and its counters in key
// order, with its children in brackets after it. The JSON encoding is
// the nested object the struct tags give.
func (v *SpanView) String() string {
	var b strings.Builder
	v.writeTo(&b)
	return b.String()
}

func (v *SpanView) writeTo(b *strings.Builder) {
	if v == nil {
		b.WriteString("<nil>")
		return
	}
	b.WriteString(v.Name)
	b.WriteByte(' ')
	b.WriteString((time.Duration(v.DurUS) * time.Microsecond).String())
	for _, k := range slices.Sorted(maps.Keys(v.Counters)) {
		fmt.Fprintf(b, " %s=%d", k, v.Counters[k])
	}
	if len(v.Children) == 0 {
		return
	}
	b.WriteString(" [")
	for i, c := range v.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.writeTo(b)
	}
	b.WriteByte(']')
}

// Snapshot returns a deep copy of the span tree, safe to serialize
// after the trace keeps being written to. Nil-safe (returns nil).
func (t *Trace) Snapshot() *SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root.viewLocked(t.root.start)
}

func (s *Span) viewLocked(origin time.Time) *SpanView {
	v := &SpanView{
		Name:    s.name,
		StartUS: s.start.Sub(origin).Microseconds(),
		DurUS:   s.dur.Microseconds(),
	}
	if len(s.counters) > 0 {
		v.Counters = make(map[string]int64, len(s.counters))
		for _, kv := range s.counters {
			v.Counters[kv.key] = kv.val
		}
	}
	for _, c := range s.children {
		v.Children = append(v.Children, c.viewLocked(origin))
	}
	return v
}
