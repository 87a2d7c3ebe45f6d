package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Parent is 0 for a root; spans of one op share
// a trace id.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. Nesting follows a stack of open spans:
// the replay runs one op at a time, and a callee on another goroutine (a
// live graph's apply loop calling its journal) runs while its caller is
// blocked, so the innermost open span is always its parent.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // IDs of open spans, innermost last
	trace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// root opens the root span of a new trace and returns its end function.
func (t *tracer) root(name string) func() {
	t.mu.Lock()
	t.trace++
	t.open = t.open[:0]
	t.mu.Unlock()
	return t.start(name)
}

// start opens a child of the innermost open span and returns its end
// function, which must be called before the parent's.
func (t *tracer) start(name string) func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.push(name, t.ns(time.Now()))
	return func() {
		end := t.ns(time.Now())
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[id-1].End = end
		if n := len(t.open); n > 0 && t.open[n-1] == id {
			t.open = t.open[:n-1]
		}
	}
}

// add records an already-finished child of the innermost open span, for
// phases a layer reports as durations (the kernel's setup, enumerate and
// merge).
func (t *tracer) add(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.push(name, t.ns(start))
	t.spans[id-1].End = t.ns(end)
	t.open = t.open[:len(t.open)-1]
}

// push appends an open span; callers hold mu.
func (t *tracer) push(name string, start int64) int {
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: t.trace, Start: start})
	t.open = append(t.open, id)
	return id
}

// snapshot returns a copy of every recorded span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerStat aggregates every span of one name.
type layerStat struct {
	name       string
	count      int
	busy, self time.Duration
	durs       []float64 // ms
}

func (l *layerStat) p(q float64) float64 { return percentile(l.durs, q) }

// layerStats groups spans by name, in first-seen order.
func layerStats(spans []span) []*layerStat {
	self := selfTimes(spans)
	byName := make(map[string]*layerStat)
	var out []*layerStat
	for _, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layerStat{name: s.Name}
			byName[s.Name] = l
			out = append(out, l)
		}
		l.count++
		l.busy += s.dur()
		l.self += self[s.ID]
		l.durs = append(l.durs, ms(s.dur()))
	}
	return out
}

// writeLayerTable prints each layer's count, busy time, self time and
// p50/p99 duration, with self time as a share of the root spans' total.
func writeLayerTable(w io.Writer, stats []*layerStat, rootTotal time.Duration) {
	fmt.Fprintf(w, "# %-34s %7s %11s %11s %7s %10s %10s\n", "span", "count", "busy_ms", "self_ms", "self%", "p50_ms", "p99_ms")
	for _, l := range stats {
		share := 0.0
		if rootTotal > 0 {
			share = 100 * float64(l.self) / float64(rootTotal)
		}
		fmt.Fprintf(w, "# %-34s %7d %11.3f %11.3f %6.1f%% %10.4f %10.4f\n",
			l.name, l.count, ms(l.busy), ms(l.self), share, l.p(50), l.p(99))
	}
}

// writeSpans writes the spans as one JSON document to path, creating its
// directory.
func writeSpans(path string, meta map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := make(map[string]any, len(meta)+1)
	for k, v := range meta {
		doc[k] = v
	}
	doc["spans"] = spans
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootTotal sums the durations of root spans whose name has prefix.
func rootTotal(spans []span, prefix string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, prefix) {
			d += s.dur()
		}
	}
	return d
}

// withoutTrace drops every span of the traces whose root is named root.
func withoutTrace(spans []span, root string) []span {
	drop := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			drop[s.Trace] = true
		}
	}
	var out []span
	for _, s := range spans {
		if !drop[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}
