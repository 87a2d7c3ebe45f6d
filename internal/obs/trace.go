package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Trace identity rides the context: WithTraceID installs the request's
// trace id, StartSpan layers span parentage on top. Propagation is always
// on — minting an id and carrying it through a context is a few
// allocations per request — while recording into the ring buffer is what
// a zero-capacity Tracer turns off.

type traceIDKey struct{}
type spanIDKey struct{}

// WithTraceID returns ctx carrying the trace id.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the trace id carried by ctx, or "".
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// spanID returns the current span id carried by ctx, or 0.
func spanID(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanIDKey{}).(uint64)
	return id
}

// InheritTrace returns dst carrying src's trace identity (trace id and
// current span). It is the bridge for work that must outlive the request
// that started it: asynchronous jobs run under the server's lifetime
// context, but their spans should still parent under the originating
// request.
func InheritTrace(dst, src context.Context) context.Context {
	if id := TraceID(src); id != "" {
		dst = WithTraceID(dst, id)
		if sid := spanID(src); sid != 0 {
			dst = context.WithValue(dst, spanIDKey{}, sid)
		}
	}
	return dst
}

// idFallback seeds trace ids if the system entropy source ever fails.
var idFallback atomic.Uint64

// NewTraceID mints a 16-hex-char random trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is acceptable as an inbound trace id:
// 1-64 characters drawn from [0-9A-Za-z_-]. Anything else (header
// injection, log-breaking bytes, unbounded length) is replaced with a
// fresh id rather than propagated.
func ValidTraceID(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one finished span in the tracer's ring buffer.
type SpanRecord struct {
	TraceID  string
	SpanID   uint64
	ParentID uint64
	Name     string
	Start    time.Time
	End      time.Time
	Attrs    []Attr
}

// Duration is the span's wall-clock length.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// Tracer records finished spans into a fixed-size ring buffer — a flight
// recorder, not an exporter: the newest N spans are always inspectable
// at /v1/admin/traces, older ones fall off the end, and nothing is ever
// sent anywhere. A Tracer built with capacity <= 0 retains nothing; if it
// does not time spans either (TimeSpans), StartSpan degrades to pure
// context propagation, as on a nil *Tracer.
type Tracer struct {
	seq atomic.Uint64

	mu   sync.Mutex
	buf  []SpanRecord
	next int
	n    int // records written, saturating at len(buf)

	// spansTotal, when set, counts recorded spans (mochyd_trace_spans_total).
	spansTotal *Counter
	// durations, when set, times every span ended by Span.End or
	// RecordSpan, by name, whether or not the ring retains it.
	durations *HistogramVec
}

// NewTracer returns a tracer retaining the last capacity finished spans.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{}
	if capacity > 0 {
		t.buf = make([]SpanRecord, capacity)
	}
	return t
}

// CountSpans makes t count recorded spans in c.
func (t *Tracer) CountSpans(c *Counter) {
	if t != nil {
		t.spansTotal = c
	}
}

// TimeSpans makes t observe the duration in seconds of every span ended
// by Span.End or RecordSpan into h, labelled by span name. Spans recorded
// by RecordSpanID are not observed: their caller times its own interval.
func (t *Tracer) TimeSpans(h *HistogramVec) {
	if t != nil {
		t.durations = h
	}
}

// retains reports whether t keeps spans in its ring.
func (t *Tracer) retains() bool { return t != nil && len(t.buf) > 0 }

// active reports whether spans are worth building: t retains or times them.
func (t *Tracer) active() bool { return t != nil && (len(t.buf) > 0 || t.durations != nil) }

// Span is one in-flight operation. A nil *Span (from a disabled tracer or
// a context without a trace) accepts every method as a no-op, so call
// sites never branch.
type Span struct {
	t       *Tracer
	traceID string
	id      uint64
	parent  uint64
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// StartSpan opens a span under ctx's trace (and current span, if any),
// returning a derived context that makes the new span the parent of any
// spans started beneath it. Without a trace id on ctx, or on a tracer that
// neither retains nor times spans, it returns ctx unchanged and a nil span.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !t.active() {
		return ctx, nil
	}
	id := TraceID(ctx)
	if id == "" {
		return ctx, nil
	}
	s := &Span{
		t:       t,
		traceID: id,
		id:      t.seq.Add(1),
		parent:  spanID(ctx),
		name:    name,
		start:   time.Now(),
	}
	return context.WithValue(ctx, spanIDKey{}, s.id), s
}

// SetAttr annotates the span. Safe on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End finishes the span, timing and recording it. Safe on a nil span;
// extra Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.t.finish(SpanRecord{
		TraceID:  s.traceID,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		End:      time.Now(),
	}, attrs)
}

// StartID reserves a span identity under ctx's trace, returning a derived
// context that parents spans started beneath it, plus the reserved id and
// its parent for a later RecordSpanID. It is the allocation-light
// alternative to StartSpan for per-request call sites that already
// measure their own interval: no Span object, no extra clock reads. An id
// of 0 means recording is off (or ctx carries no trace) and ctx comes
// back unchanged.
func (t *Tracer) StartID(ctx context.Context) (context.Context, uint64, uint64) {
	if !t.retains() || TraceID(ctx) == "" {
		return ctx, 0, 0
	}
	id := t.seq.Add(1)
	parent := spanID(ctx)
	return context.WithValue(ctx, spanIDKey{}, id), id, parent
}

// RecordSpanID records an already-measured interval under an identity
// reserved by StartID. A zero id is a no-op.
func (t *Tracer) RecordSpanID(ctx context.Context, id, parent uint64, name string, start, end time.Time, attrs ...Attr) {
	if id == 0 || !t.retains() {
		return
	}
	t.record(SpanRecord{
		TraceID:  TraceID(ctx),
		SpanID:   id,
		ParentID: parent,
		Name:     name,
		Start:    start,
		End:      end,
	}, attrs)
}

// RecordSpan times and records an already-measured interval as a finished
// span under ctx's trace and current span — for stages whose boundaries
// are only known after the fact (e.g. kernel progress milestones).
func (t *Tracer) RecordSpan(ctx context.Context, name string, start, end time.Time, attrs ...Attr) {
	if !t.active() {
		return
	}
	id := TraceID(ctx)
	if id == "" {
		return
	}
	t.finish(SpanRecord{
		TraceID:  id,
		SpanID:   t.seq.Add(1),
		ParentID: spanID(ctx),
		Name:     name,
		Start:    start,
		End:      end,
	}, attrs)
}

// finish observes a span ended by End or RecordSpan into the duration
// sink, then records it if the ring is on.
func (t *Tracer) finish(rec SpanRecord, attrs []Attr) {
	if t.durations != nil {
		t.durations.With(rec.Name).Observe(rec.Duration().Seconds())
	}
	if t.retains() {
		t.record(rec, attrs)
	}
}

// record appends one finished span to the ring. attrs are COPIED into the
// overwritten slot's recycled backing array rather than retained: the
// caller's slice never escapes, so a variadic RecordSpan costs no heap
// allocation once the ring has wrapped. Snapshot deep-copies in return.
func (t *Tracer) record(rec SpanRecord, attrs []Attr) {
	if t.spansTotal != nil {
		t.spansTotal.Inc()
	}
	t.mu.Lock()
	slot := &t.buf[t.next]
	rec.Attrs = append(slot.Attrs[:0], attrs...)
	*slot = rec
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot copies the retained spans, oldest first. Attr slices are deep
// copies: the ring recycles its attr backings, so handing out the live
// ones would let later records mutate a caller's snapshot.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := t.next - t.n
	for i := 0; i < t.n; i++ {
		rec := t.buf[(start+i+len(t.buf))%len(t.buf)]
		if len(rec.Attrs) > 0 {
			rec.Attrs = append([]Attr(nil), rec.Attrs...)
		}
		out = append(out, rec)
	}
	return out
}
