package mochy

// Dynamic work distribution for the parallel counting kernels.
//
// The kernels used to partition anchor hyperedges with a static stride
// (worker w took anchors w, w+workers, w+2*workers, ...). Under degree skew
// that collapses: the pair loop anchored at a hyperedge is quadratic in its
// projected degree, so one hub hyperedge pins one worker for most of the run
// while the others drain their cheap strides and idle. The chunkSched here
// replaces the stride with an atomic chunk cursor: anchors are pre-cut into
// contiguous ranges of roughly equal *estimated pair work* (prefix sums of
// C(deg, 2) over a materialized projected graph), and workers grab the next
// range whenever they finish one. Hub-heavy chunks shrink to a few anchors,
// so the tail of the run stops tracking the single hottest hyperedge.

import (
	"sync/atomic"
	"time"

	"mochy/internal/projection"
)

// chunksPerWorker targets this many scheduler chunks per worker. More chunks
// mean finer redistribution when estimates miss but more cursor traffic;
// 16 keeps the cursor cold (one atomic add per chunk) while leaving enough
// slack that a worker stuck on a hub gives up the rest of the anchor space.
const chunksPerWorker = 16

// anchorCost estimates the pair work anchored at a hyperedge of projected
// degree d: the C(d, 2) candidate pairs, plus one unit so empty anchors
// still advance chunk boundaries.
func anchorCost(d int) int64 {
	return int64(d)*int64(d-1)/2 + 1
}

// KernelStats reports how one parallel kernel run scheduled and balanced its
// work. It feeds the mochyd_kernel_* observability families and the
// scheduler-phase spans.
type KernelStats struct {
	// Workers is the number of goroutines the run used.
	Workers int
	// Chunks is how many anchor ranges the chunk cursor handed out.
	Chunks int
	// CostAware reports whether chunk boundaries were sized from projected
	// degrees (prefix sums of C(deg, 2)) rather than uniform anchor counts.
	CostAware bool
	// Steals counts chunks a worker grabbed beyond its static fair share
	// ceil(Chunks/Workers) — how much work the cursor redistributed relative
	// to a static partition. 0 means the static partition would have
	// balanced equally well.
	Steals int64
	// Imbalance is the max-over-mean ratio of per-worker busy wall time;
	// 1.0 is a perfectly even run, Workers is the worst case (one worker did
	// everything).
	Imbalance float64
	// Setup, Enumerate and Merge are the wall-clock durations of the three
	// kernel phases: scheduler construction (with the projected graph's
	// orientation when the oriented counter runs), the parallel
	// enumeration, and the merge of per-worker results.
	Setup     time.Duration
	Enumerate time.Duration
	Merge     time.Duration
}

// chunkSched hands out contiguous anchor ranges through an atomic cursor.
type chunkSched struct {
	// bounds[c] .. bounds[c+1] is the anchor range of chunk c.
	bounds    []int32
	cursor    atomic.Int64
	costAware bool
}

// newChunkSched cuts the anchor space [0, n) into roughly cost-equal chunks
// for the given worker count. Over a materialized *projection.Projected, with
// its O(1) degrees, the cut points come from prefix sums of per-anchor
// pair-work estimates; otherwise, p nil included, chunks hold equal anchor
// counts (still dynamic — grabbing stays adaptive even when sizing cannot
// be). The memoized projector takes the uniform path on purpose: a degree
// there costs a full neighborhood.
func newChunkSched(p projection.Projector, n, workers int) *chunkSched {
	s := &chunkSched{}
	if n <= 0 {
		s.bounds = []int32{0}
		return s
	}
	target := workers * chunksPerWorker
	if target > n {
		target = n
	}
	if workers <= 1 {
		target = 1
	}
	pp, ok := p.(*projection.Projected)
	if !ok || target == 1 {
		// Uniform anchor ranges: ceil(n/target) anchors per chunk.
		per := (n + target - 1) / target
		for lo := 0; lo < n; lo += per {
			s.bounds = append(s.bounds, int32(lo))
		}
		s.bounds = append(s.bounds, int32(n))
		return s
	}
	s.costAware = true
	var total int64
	for i := 0; i < n; i++ {
		total += anchorCost(pp.Degree(int32(i)))
	}
	perChunk := total / int64(target)
	if perChunk < 1 {
		perChunk = 1
	}
	s.bounds = append(s.bounds, 0)
	var acc int64
	for i := 0; i < n; i++ {
		acc += anchorCost(pp.Degree(int32(i)))
		if acc >= perChunk && i+1 < n {
			s.bounds = append(s.bounds, int32(i+1))
			acc = 0
		}
	}
	s.bounds = append(s.bounds, int32(n))
	return s
}

// numChunks returns how many chunks the cursor will hand out.
func (s *chunkSched) numChunks() int { return len(s.bounds) - 1 }

// next grabs the next unclaimed chunk index, or -1 when the anchor space is
// exhausted.
func (s *chunkSched) next() int {
	c := int(s.cursor.Add(1)) - 1
	if c >= s.numChunks() {
		return -1
	}
	return c
}

// chunk returns the anchor range of chunk c.
func (s *chunkSched) chunk(c int) (lo, hi int32) {
	return s.bounds[c], s.bounds[c+1]
}

// balance derives the steal count and busy-time imbalance of a finished run
// from per-worker tallies. grabs[w] is how many chunks worker w claimed;
// busy[w] its wall-clock enumeration time.
func (s *chunkSched) balance(grabs []int64, busy []time.Duration) (steals int64, imbalance float64) {
	workers := len(grabs)
	if workers == 0 {
		return 0, 1
	}
	fair := int64((s.numChunks() + workers - 1) / workers)
	var busySum, busyMax time.Duration
	for w := range grabs {
		if over := grabs[w] - fair; over > 0 {
			steals += over
		}
		busySum += busy[w]
		if busy[w] > busyMax {
			busyMax = busy[w]
		}
	}
	if busySum <= 0 {
		return steals, 1
	}
	mean := float64(busySum) / float64(workers)
	return steals, float64(busyMax) / mean
}
