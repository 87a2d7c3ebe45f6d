// Package temporal analyzes how the h-motif composition of a timed
// hypergraph evolves, using sliding windows over edge timestamps.
//
// The paper studies evolution with yearly snapshots of coauth-DBLP
// (Figure 7) and names temporal hypergraphs as future work. This package
// generalizes the snapshot study: windows of any width and stride slide
// over the edge stream, and each window's exact h-motif counts are
// maintained incrementally with the dynamic counter (package dynamic)
// instead of recounting from scratch — edges entering the window are
// inserted, edges leaving it are deleted.
package temporal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mochy/internal/dynamic"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/stats"
)

// MaxWindows caps the windows of one sweep. The per-window work is
// amortized, but the sweep returns one census per window, so a wide time
// range at a small stride would otherwise exhaust memory before it returned.
const MaxWindows = 4096

// Errors returned by Sweep.
var (
	ErrUntimed        = errors.New("temporal: hypergraph has no edge timestamps")
	ErrBadWindow      = errors.New("temporal: window width and stride must be positive")
	ErrTooManyWindows = fmt.Errorf("temporal: sweep exceeds the cap of %d windows", MaxWindows)
)

// Config parameterizes a sliding-window sweep. Windows are half-open time
// intervals [Start, Start+Width) advanced by Stride; the sweep starts at the
// earliest edge timestamp and ends with the first window that ends past the
// latest one. Start+Width and Start+Stride are taken without overflow: where
// they pass math.MaxInt64, the window reaches every later timestamp and its
// End reads math.MaxInt64.
type Config struct {
	Width  int64
	Stride int64
}

// Window is the exact h-motif census of one time window.
type Window struct {
	Start, End int64 // half-open interval [Start, End), End saturated at math.MaxInt64
	Edges      int   // live hyperedges in the window
	Counts     counting.Counts
}

// OpenFraction returns the fraction of the window's instances whose h-motif
// is open (IDs 17-22), the quantity tracked in Figure 7(b).
func (w *Window) OpenFraction() float64 { return w.Counts.OpenFraction() }

// Fractions returns the window's per-motif instance fractions, the
// quantity tracked per motif in Figure 7(a).
func (w *Window) Fractions() [motif.Count]float64 { return w.Counts.Fractions() }

// Sweep slides windows over the timed hypergraph g and returns one exact
// h-motif census per window. Edges are inserted into and deleted from a
// dynamic counter as the window advances, so the total work is proportional
// to the number of window transitions each hyperedge makes, not to the
// number of windows times the graph size. It checks ctx before the first
// window and between windows, and returns context.Cause once ctx is done. A
// sweep of more than MaxWindows windows is refused before the first one
// (see CheckWindows).
func Sweep(ctx context.Context, g *hypergraph.Hypergraph, cfg Config) ([]Window, error) {
	if cfg.Width <= 0 || cfg.Stride <= 0 {
		return nil, ErrBadWindow
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if err := CheckWindows(g, cfg.Stride); err != nil || g.NumEdges() == 0 {
		return nil, err
	}

	// Edge indices in timestamp order; insertion and eviction both advance
	// monotonically through this order.
	order := make([]int, g.NumEdges())
	for e := range order {
		order[e] = e
	}
	sort.Slice(order, func(a, b int) bool { return g.Time(order[a]) < g.Time(order[b]) })

	minT, maxT := g.TimeRange()
	c := dynamic.New()
	ids := make(map[int]int32, len(order))
	var windows []Window
	addPtr, remPtr := 0, 0
	for start := minT; ; start = addSat(start, cfg.Stride) {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		for addPtr < len(order) && before(g.Time(order[addPtr]), start, cfg.Width) {
			e := order[addPtr]
			if g.Time(e) >= start {
				id, err := c.Insert(g.Edge(e))
				if err != nil {
					return nil, fmt.Errorf("temporal: edge %d: %w", e, err)
				}
				ids[e] = id
			}
			addPtr++
		}
		for remPtr < len(order) && g.Time(order[remPtr]) < start {
			e := order[remPtr]
			if id, ok := ids[e]; ok {
				if err := c.Delete(id); err != nil {
					return nil, fmt.Errorf("temporal: edge %d: %w", e, err)
				}
				delete(ids, e)
			}
			remPtr++
		}
		windows = append(windows, Window{
			Start:  start,
			End:    addSat(start, cfg.Width),
			Edges:  c.NumEdges(),
			Counts: c.Counts(),
		})
		if before(maxT, start, cfg.Width) {
			break
		}
	}
	return windows, nil
}

// CheckWindows returns the error Sweep refuses g with at a stride > 0
// before its first window: ErrUntimed for edges without timestamps, or
// ErrTooManyWindows, with the stride and time range, for a sweep of more
// than MaxWindows windows. The pipeline's temporal stage calls it before
// taking a worker.
func CheckWindows(g *hypergraph.Hypergraph, stride int64) error {
	if g.NumEdges() == 0 {
		// An edgeless hypergraph has no time range (and, as a representation
		// quirk, no timestamps either): the sweep is trivially empty.
		return nil
	}
	if !g.Timed() {
		return ErrUntimed
	}
	// hi-lo as a uint64 is the exact span even where the int64 subtraction
	// wraps, and the sweep takes at most span/stride + 1 windows.
	lo, hi := g.TimeRange()
	if uint64(hi-lo)/uint64(stride) >= MaxWindows {
		return fmt.Errorf("%w: stride %d over time range [%d, %d]", ErrTooManyWindows, stride, lo, hi)
	}
	return nil
}

// before reports whether t < start+width for width > 0, without forming the
// sum: for t >= start, t-start as a uint64 is the exact distance even where
// the int64 subtraction wraps.
func before(t, start, width int64) bool {
	return t < start || uint64(t-start) < uint64(width)
}

// addSat returns a+b for b > 0, or math.MaxInt64 where the sum overflows.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// Drift returns, for each window after the first, one minus the Pearson
// correlation between consecutive windows' motif-fraction vectors. Values
// near zero mean the local structure is stable; spikes locate windows where
// the h-motif composition shifts — the temporal analogue of comparing CPs
// across datasets. Windows without instances correlate as zero vectors and
// yield a drift of one against any non-empty neighbor.
func Drift(windows []Window) []float64 {
	if len(windows) < 2 {
		return nil
	}
	out := make([]float64, len(windows)-1)
	prev := fractionSlice(&windows[0])
	for i := 1; i < len(windows); i++ {
		cur := fractionSlice(&windows[i])
		out[i-1] = 1 - stats.Pearson(prev, cur)
		prev = cur
	}
	return out
}

// MostAnomalous returns the index (into the windows slice) of the window
// whose motif composition shifted the most relative to its predecessor, or
// -1 when there are fewer than two windows.
func MostAnomalous(windows []Window) int {
	drift := Drift(windows)
	best, bestVal := -1, -1.0
	for i, d := range drift {
		if d > bestVal {
			best, bestVal = i+1, d
		}
	}
	return best
}

// OpenFractionSeries extracts the open-motif fraction of every window, the
// series plotted in Figure 7(b).
func OpenFractionSeries(windows []Window) []float64 {
	out := make([]float64, len(windows))
	for i := range windows {
		out[i] = windows[i].OpenFraction()
	}
	return out
}

func fractionSlice(w *Window) []float64 {
	f := w.Fractions()
	return f[:]
}
