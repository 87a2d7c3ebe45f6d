package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestStartSpanParenting(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithTraceID(context.Background(), "abc123")

	ctx1, root := tr.StartSpan(ctx, "request")
	ctx2, child := tr.StartSpan(ctx1, "kernel")
	child.SetAttr("algorithm", "exact")
	_, grand := tr.StartSpan(ctx2, "persist")
	grand.End()
	child.End()
	root.End()

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.TraceID != "abc123" {
			t.Fatalf("span %s trace = %q", r.Name, r.TraceID)
		}
	}
	if byName["request"].ParentID != 0 {
		t.Fatalf("root has parent %d", byName["request"].ParentID)
	}
	if byName["kernel"].ParentID != byName["request"].SpanID {
		t.Fatalf("kernel parent = %d, want %d", byName["kernel"].ParentID, byName["request"].SpanID)
	}
	if byName["persist"].ParentID != byName["kernel"].SpanID {
		t.Fatalf("persist parent = %d, want %d", byName["persist"].ParentID, byName["kernel"].SpanID)
	}
	if len(byName["kernel"].Attrs) != 1 || byName["kernel"].Attrs[0].Value != "exact" {
		t.Fatalf("kernel attrs = %+v", byName["kernel"].Attrs)
	}
}

func TestRingWraps(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTraceID(context.Background(), "t")
	for i := 0; i < 10; i++ {
		_, s := tr.StartSpan(ctx, string(rune('a'+i)))
		s.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	// Oldest first: spans g, h, i, j survive.
	want := []string{"g", "h", "i", "j"}
	for i, r := range recs {
		if r.Name != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Name, want[i])
		}
	}
}

func TestDisabledTracerIsInert(t *testing.T) {
	ctx := WithTraceID(context.Background(), "t")
	for _, tr := range []*Tracer{nil, NewTracer(0)} {
		octx, s := tr.StartSpan(ctx, "x")
		if s != nil {
			t.Fatal("disabled tracer returned a live span")
		}
		if octx != ctx {
			t.Fatal("disabled tracer derived a new context")
		}
		s.SetAttr("k", "v") // must not panic
		s.End()
		tr.RecordSpan(ctx, "y", time.Now(), time.Now())
		if got := tr.Snapshot(); len(got) != 0 {
			t.Fatalf("disabled tracer retained %d spans", len(got))
		}
	}
}

// TestTimeSpans: a tracer with a duration sink times every span ended by
// End or RecordSpan whatever its ring capacity, retains spans only in a
// ring, and leaves the intervals RecordSpanID reports (already timed by
// their caller) out of the sink.
func TestTimeSpans(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		reg := NewRegistry()
		tr := NewTracer(capacity)
		tr.TimeSpans(reg.NewHistogramVec("span_seconds", "", []float64{0.1, 1}, "name"))
		ctx := WithTraceID(context.Background(), "t")

		jctx, job := tr.StartSpan(ctx, "job")
		if job == nil {
			t.Fatalf("capacity %d: timed tracer returned no span", capacity)
		}
		start := time.Now().Add(-time.Second)
		tr.RecordSpan(jctx, "stage", start, start.Add(500*time.Millisecond))
		job.End()
		rctx, id, parent := tr.StartID(ctx)
		tr.RecordSpanID(rctx, id, parent, "request", start, start.Add(time.Millisecond))

		var buf strings.Builder
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		body := buf.String()
		for _, want := range []string{
			`span_seconds_bucket{name="job",le="0.1"} 1`,
			`span_seconds_count{name="job"} 1`,
			`span_seconds_bucket{name="stage",le="0.1"} 0`,
			`span_seconds_bucket{name="stage",le="1"} 1`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("capacity %d: exposition missing %q:\n%s", capacity, want, body)
			}
		}
		if strings.Contains(body, `name="request"`) {
			t.Errorf("capacity %d: RecordSpanID interval was timed:\n%s", capacity, body)
		}
		// The ring keeps job, stage and request; a zero-capacity tracer
		// keeps nothing.
		want := 0
		if capacity > 0 {
			want = 3
		}
		if got := len(tr.Snapshot()); got != want {
			t.Errorf("capacity %d: retained %d spans, want %d", capacity, got, want)
		}
	}
}

func TestNoTraceOnContextMeansNoSpan(t *testing.T) {
	tr := NewTracer(4)
	_, s := tr.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("span created without a trace id")
	}
}

func TestInheritTrace(t *testing.T) {
	tr := NewTracer(8)
	src := WithTraceID(context.Background(), "xyz")
	src, reqSpan := tr.StartSpan(src, "request")

	dst := InheritTrace(context.Background(), src)
	if got := TraceID(dst); got != "xyz" {
		t.Fatalf("inherited trace = %q", got)
	}
	_, s := tr.StartSpan(dst, "job")
	s.End()
	reqSpan.End()

	for _, r := range tr.Snapshot() {
		if r.Name == "job" && r.ParentID != reqSpan.id {
			t.Fatalf("job parent = %d, want %d", r.ParentID, reqSpan.id)
		}
	}
	// Inheriting from an untraced context is a no-op.
	if got := TraceID(InheritTrace(context.Background(), context.Background())); got != "" {
		t.Fatalf("unexpected trace %q", got)
	}
}

func TestRecordSpanRetroactive(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTraceID(context.Background(), "t")
	ctx, parent := tr.StartSpan(ctx, "kernel")
	start := time.Now().Add(-time.Second)
	tr.RecordSpan(ctx, "stage", start, start.Add(250*time.Millisecond), Attr{Key: "edges", Value: "100"})
	parent.End()

	for _, r := range tr.Snapshot() {
		if r.Name != "stage" {
			continue
		}
		if r.ParentID != parent.id {
			t.Fatalf("stage parent = %d, want %d", r.ParentID, parent.id)
		}
		if d := r.Duration(); d != 250*time.Millisecond {
			t.Fatalf("stage duration = %s", d)
		}
		return
	}
	t.Fatal("stage span not recorded")
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(8)
	ctx := WithTraceID(context.Background(), "t")
	_, s := tr.StartSpan(ctx, "x")
	s.End()
	s.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("got %d records, want 1", got)
	}
}

func TestCountSpans(t *testing.T) {
	tr := NewTracer(2)
	var c Counter
	tr.CountSpans(&c)
	ctx := WithTraceID(context.Background(), "t")
	for i := 0; i < 5; i++ {
		_, s := tr.StartSpan(ctx, "x")
		s.End()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("spansTotal = %d, want 5 (ring wrap must not cap the counter)", got)
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("ids collide: %s", a)
	}
	if !ValidTraceID(a) || len(a) != 16 {
		t.Fatalf("bad id %q", a)
	}
}

func TestValidTraceID(t *testing.T) {
	cases := map[string]bool{
		"":            false,
		"abc-123_DEF": true,
		"has space":   false,
		"ünïcode":     false,
		"x\n":         false,
	}
	cases[string(make([]byte, 65))] = false
	for in, want := range cases {
		if got := ValidTraceID(in); got != want {
			t.Fatalf("ValidTraceID(%q) = %v, want %v", in, got, want)
		}
	}
}
