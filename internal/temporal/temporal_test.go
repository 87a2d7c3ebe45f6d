package temporal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// timedGraph builds a small timed hypergraph by hand.
func timedGraph(t *testing.T, edges [][]int32, times []int64, nodes int) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(nodes)
	for i, e := range edges {
		b.AddTimedEdge(e, times[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSweepErrors(t *testing.T) {
	untimed := hypergraph.FromEdges(3, [][]int32{{0, 1, 2}})
	if _, err := Sweep(context.Background(), untimed, Config{Width: 1, Stride: 1}); err != ErrUntimed {
		t.Fatalf("untimed: got %v, want ErrUntimed", err)
	}
	timed := timedGraph(t, [][]int32{{0, 1}}, []int64{0}, 2)
	for _, cfg := range []Config{{Width: 0, Stride: 1}, {Width: 1, Stride: 0}, {Width: -2, Stride: 3}} {
		if _, err := Sweep(context.Background(), timed, cfg); err != ErrBadWindow {
			t.Fatalf("config %+v: got %v, want ErrBadWindow", cfg, err)
		}
	}
}

func TestSweepHandExample(t *testing.T) {
	// Three edges at times 0, 1, 2 forming one instance only when all three
	// are in the same window.
	edges := [][]int32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}
	times := []int64{0, 1, 2}
	g := timedGraph(t, edges, times, 5)

	// Width 3 from t=0 covers everything in the first window.
	windows, err := Sweep(context.Background(), g, Config{Width: 3, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if windows[0].Edges != 3 {
		t.Fatalf("window 0: %d edges, want 3", windows[0].Edges)
	}
	w0 := windows[0].Counts
	if w0.Total() != 1 {
		t.Fatalf("window 0: %v instances, want 1", w0.Total())
	}

	// Width 1: no window ever holds more than one edge, so no instances.
	narrow, err := Sweep(context.Background(), g, Config{Width: 1, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range narrow {
		c := narrow[i].Counts
		if c.Total() != 0 {
			t.Fatalf("narrow window %d has instances", i)
		}
		if narrow[i].Edges != 1 {
			t.Fatalf("narrow window %d: %d edges, want 1", i, narrow[i].Edges)
		}
	}
}

// TestSweepMatchesSliceRecount is the equivalence test: every window's
// incremental counts must equal MoCHy-E run on the TimeSlice of the same
// interval.
func TestSweepMatchesSliceRecount(t *testing.T) {
	cfg := generator.DefaultTemporal()
	cfg.Nodes = 300
	cfg.FirstYear = 2000
	cfg.LastYear = 2011
	cfg.EdgesFirst = 60
	cfg.EdgesLast = 140
	g := generator.GenerateTemporal(cfg)

	for _, wcfg := range []Config{
		{Width: 3, Stride: 1},
		{Width: 2, Stride: 2},
		{Width: 1, Stride: 3}, // stride larger than width: gaps are legal
		{Width: 5, Stride: 2},
	} {
		windows, err := Sweep(context.Background(), g, wcfg)
		if err != nil {
			t.Fatalf("%+v: %v", wcfg, err)
		}
		if len(windows) == 0 {
			t.Fatalf("%+v: no windows", wcfg)
		}
		for _, w := range windows {
			slice := g.TimeSlice(w.Start, w.End)
			if slice.NumEdges() != w.Edges {
				t.Fatalf("%+v window [%d,%d): %d edges, slice has %d",
					wcfg, w.Start, w.End, w.Edges, slice.NumEdges())
			}
			want := counting.CountExact(slice, projection.Build(slice), 1)
			for id := 1; id <= motif.Count; id++ {
				if w.Counts.Get(id) != want.Get(id) {
					t.Fatalf("%+v window [%d,%d) motif %d: sweep %v, recount %v",
						wcfg, w.Start, w.End, id, w.Counts.Get(id), want.Get(id))
				}
			}
		}
	}
}

func TestSweepCoversFullRange(t *testing.T) {
	g := timedGraph(t, [][]int32{{0, 1}, {1, 2}, {2, 3}}, []int64{0, 5, 10}, 4)
	windows, err := Sweep(context.Background(), g, Config{Width: 4, Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := windows[len(windows)-1]
	if last.End <= 10 {
		t.Fatalf("sweep stops at %d, never covers the last edge (t=10)", last.End)
	}
	total := 0
	for _, w := range windows {
		total += w.Edges
	}
	if total != 3 {
		t.Fatalf("disjoint windows saw %d edges in total, want 3", total)
	}
}

func TestSweepEmptyGraph(t *testing.T) {
	b := hypergraph.NewBuilder(4)
	b.AddTimedEdge([]int32{0, 1}, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g = g.TimeSlice(100, 200) // empty but still timed
	windows, err := Sweep(context.Background(), g, Config{Width: 2, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if windows != nil {
		t.Fatalf("empty graph produced %d windows", len(windows))
	}
}

// TestOpenFractionRises checks the Figure 7(b) mechanism on the temporal
// generator: with drifting mixing, later windows have a larger open-motif
// fraction than early ones.
func TestOpenFractionRises(t *testing.T) {
	cfg := generator.DefaultTemporal()
	cfg.Nodes = 400
	cfg.FirstYear = 1990
	cfg.LastYear = 2014
	cfg.EdgesFirst = 80
	cfg.EdgesLast = 300
	g := generator.GenerateTemporal(cfg)

	windows, err := Sweep(context.Background(), g, Config{Width: 3, Stride: 3})
	if err != nil {
		t.Fatal(err)
	}
	series := OpenFractionSeries(windows)
	if len(series) < 4 {
		t.Fatalf("only %d windows", len(series))
	}
	early := (series[0] + series[1]) / 2
	late := (series[len(series)-1] + series[len(series)-2]) / 2
	if !(late > early) {
		t.Fatalf("open fraction did not rise: early %.4f, late %.4f", early, late)
	}
}

func TestDriftAndMostAnomalous(t *testing.T) {
	// Stable early regime (tight triangles of overlapping edges), then an
	// abrupt switch to star-like structure: drift must spike at the switch.
	var edges [][]int32
	var times []int64
	for i := 0; i < 6; i++ {
		base := int32(i * 2)
		edges = append(edges,
			[]int32{base, base + 1, base + 2},
			[]int32{base + 1, base + 2, base + 3},
			[]int32{base, base + 2, base + 3},
		)
		times = append(times, int64(i), int64(i), int64(i))
	}
	for i := 6; i < 12; i++ {
		hub := int32(40)
		base := int32(i * 3)
		edges = append(edges,
			[]int32{hub, base},
			[]int32{hub, base + 1},
			[]int32{hub, base + 2},
		)
		times = append(times, int64(i), int64(i), int64(i))
	}
	g := timedGraph(t, edges, times, 80)
	windows, err := Sweep(context.Background(), g, Config{Width: 2, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	drift := Drift(windows)
	if len(drift) != len(windows)-1 {
		t.Fatalf("drift length %d, want %d", len(drift), len(windows)-1)
	}
	for i, d := range drift {
		if math.IsNaN(d) {
			t.Fatalf("drift[%d] is NaN", i)
		}
	}
	anom := MostAnomalous(windows)
	if anom < 1 || anom >= len(windows) {
		t.Fatalf("MostAnomalous = %d out of range", anom)
	}
	// The spike must land where the regime changes (edge times 5..7).
	if windows[anom].Start < 4 || windows[anom].Start > 8 {
		t.Fatalf("anomaly at window start %d, want near the regime switch at t=6",
			windows[anom].Start)
	}
}

func TestDriftDegenerate(t *testing.T) {
	if Drift(nil) != nil {
		t.Fatal("Drift(nil) != nil")
	}
	if Drift([]Window{{}}) != nil {
		t.Fatal("Drift(single) != nil")
	}
	if MostAnomalous([]Window{{}}) != -1 {
		t.Fatal("MostAnomalous(single) != -1")
	}
}

// TestQuickDisjointWindowsPartitionEdges: for any random timed hypergraph,
// a sweep whose stride equals its width partitions the edges — every edge
// is counted by exactly one window.
func TestQuickDisjointWindowsPartitionEdges(t *testing.T) {
	property := func(seed int64, rawWidth uint8) bool {
		width := int64(rawWidth%7) + 1
		rng := rand.New(rand.NewSource(seed))
		b := hypergraph.NewBuilder(24)
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(4)
			edge := make([]int32, 0, size)
			for len(edge) < size {
				v := int32(rng.Intn(24))
				ok := true
				for _, u := range edge {
					if u == v {
						ok = false
					}
				}
				if ok {
					edge = append(edge, v)
				}
			}
			b.AddTimedEdge(edge, int64(rng.Intn(30)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		windows, err := Sweep(context.Background(), g, Config{Width: width, Stride: width})
		if err != nil {
			return false
		}
		total := 0
		for _, w := range windows {
			total += w.Edges
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWidthNearMaxInt64 pins the overflow-free window end: a width of
// math.MaxInt64 used to wrap Start+Width negative, so no edge entered and no
// window ended the sweep. One window must hold every edge. The deadline turns
// a regression into a failure instead of a hang.
func TestSweepWidthNearMaxInt64(t *testing.T) {
	edges := [][]int32{{0, 1, 2}, {1, 2, 3}, {2, 3, 4}}
	g := timedGraph(t, edges, []int64{1984, 1999, 2013}, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	windows, err := Sweep(ctx, g, Config{Width: math.MaxInt64, Stride: 1})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(windows) != 1 || windows[0].Edges != len(edges) {
		t.Fatalf("got %d windows (first %+v), want one window holding all %d edges", len(windows), windows[0], len(edges))
	}
	if windows[0].Start != 1984 || windows[0].End != math.MaxInt64 {
		t.Fatalf("window [%d, %d), want [1984, MaxInt64)", windows[0].Start, windows[0].End)
	}
	if windows[0].Counts.Total() != 1 {
		t.Fatalf("window holds %v instances, want 1", windows[0].Counts.Total())
	}
}

// TestSweepStopsOnCancel asserts that Sweep checks its context between
// windows and returns its cause.
func TestSweepStopsOnCancel(t *testing.T) {
	g := timedGraph(t, [][]int32{{0, 1}, {1, 2}}, []int64{0, math.MaxInt64 / 2}, 3)
	ctx, cancel := context.WithCancelCause(context.Background())
	stop := errors.New("sweep abandoned")
	cancel(stop)
	windows, err := Sweep(ctx, g, Config{Width: 1, Stride: 1})
	if !errors.Is(err, stop) || windows != nil {
		t.Fatalf("Sweep on a cancelled context = %d windows, %v; want nil, %v", len(windows), err, stop)
	}
}

// TestSweepWindowCap pins the cap at its edge: a time range of 4,095 at
// stride 1 sweeps exactly MaxWindows windows, and one more time unit is
// refused before the first window.
func TestSweepWindowCap(t *testing.T) {
	cfg := Config{Width: 1, Stride: 1}
	g := timedGraph(t, [][]int32{{0, 1}, {1, 2}}, []int64{0, MaxWindows - 1}, 3)
	windows, err := Sweep(context.Background(), g, cfg)
	if err != nil || len(windows) != MaxWindows {
		t.Fatalf("Sweep over [0, %d] = %d windows, %v; want %d", MaxWindows-1, len(windows), err, MaxWindows)
	}
	g = timedGraph(t, [][]int32{{0, 1}, {1, 2}}, []int64{0, MaxWindows}, 3)
	if windows, err := Sweep(context.Background(), g, cfg); !errors.Is(err, ErrTooManyWindows) || windows != nil {
		t.Fatalf("Sweep over [0, %d] = %d windows, %v; want %v", MaxWindows, len(windows), err, ErrTooManyWindows)
	}
}

// TestSweepCapSpansFullInt64Range: the cap holds when the time range spans
// more than math.MaxInt64, where hi-lo wraps negative. The deadline turns a
// regression into a failure instead of a sweep that runs out of memory.
func TestSweepCapSpansFullInt64Range(t *testing.T) {
	g := timedGraph(t, [][]int32{{0, 1}, {1, 2}}, []int64{-9e18, 9e18}, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if windows, err := Sweep(ctx, g, Config{Width: 1, Stride: 1}); !errors.Is(err, ErrTooManyWindows) || windows != nil {
		t.Fatalf("Sweep over [-9e18, 9e18] = %d windows, %v; want %v", len(windows), err, ErrTooManyWindows)
	}
}
