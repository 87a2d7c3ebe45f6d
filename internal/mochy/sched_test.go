package mochy

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
)

// skewedRandomHypergraph builds a power-law-ish hypergraph: node picks follow
// a Zipf distribution, so a few nodes sit in many hyperedges and the
// projected graph grows hub hyperedges with quadratic anchor work — the
// degree profile that breaks static work partitioning.
func skewedRandomHypergraph(rng *rand.Rand, nodes, edges int) *hypergraph.Hypergraph {
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nodes-1))
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges; i++ {
		sz := 2 + rng.Intn(5)
		e := make([]int32, sz)
		for j := range e {
			e[j] = int32(zipf.Uint64())
		}
		b.AddEdge(e)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestCountExactParallelMatchesSerialSkewed is the scheduling property test:
// on degree-skewed graphs — where chunk boundaries, the cheapest-side probe,
// and the merge-walk intersection all engage — every worker count must
// reproduce the serial result exactly, on both projector implementations.
func TestCountExactParallelMatchesSerialSkewed(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := skewedRandomHypergraph(rng, 30+rng.Intn(30), 60+rng.Intn(60))
		p := projection.Build(g)
		serial := CountExact(g, p, 1)
		if want := bruteForceCounts(g); serial != want {
			t.Fatalf("seed %d: serial CountExact = %v, want brute force %v", seed, serial.String(), want.String())
		}
		for _, workers := range []int{2, 3, 8} {
			if got := CountExact(g, p, workers); got != serial {
				t.Fatalf("seed %d workers=%d: %v != serial %v", seed, workers, got.String(), serial.String())
			}
		}
		m := projection.NewMemoized(g, 1<<16, projection.PolicyDegree)
		for _, workers := range []int{2, 8} {
			if got := CountExact(g, m, workers); got != serial {
				t.Fatalf("seed %d memoized workers=%d: %v != serial %v", seed, workers, got.String(), serial.String())
			}
		}
	}
}

// TestPerEdgeCountsParallelMatchesSerialSkewed pins the sharded per-edge path
// to the serial enumeration on the same skewed shapes.
func TestPerEdgeCountsParallelMatchesSerialSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := skewedRandomHypergraph(rng, 40, 90)
	p := projection.Build(g)
	serialPer, serialTotal := perEdge(t, g, p, 1)
	for _, workers := range []int{2, 3, 8} {
		per, total := perEdge(t, g, p, workers)
		if total != serialTotal {
			t.Fatalf("workers=%d: totals %v != serial %v", workers, total.String(), serialTotal.String())
		}
		for e := range per {
			for m := range per[e] {
				if per[e][m] != serialPer[e][m] {
					t.Fatalf("workers=%d: edge %d motif %d = %d, want %d", workers, e, m+1, per[e][m], serialPer[e][m])
				}
			}
		}
	}
}

// TestCountExactOptsStats sanity-checks the scheduling report: a parallel run
// over the materialized projector must be cost-aware, hand out about
// chunksPerWorker chunks per worker, and report coherent balance numbers.
func TestCountExactOptsStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := skewedRandomHypergraph(rng, 60, 180)
	p := projection.Build(g)
	want := CountExact(g, p, 1)
	c, stats, err := CountExactOpts(context.Background(), g, p, Options{Workers: 4})
	if err != nil {
		t.Fatalf("CountExactOpts: %v", err)
	}
	if c != want {
		t.Fatalf("counts %v != serial %v", c.String(), want.String())
	}
	if stats.Workers != 4 {
		t.Fatalf("stats.Workers = %d, want 4", stats.Workers)
	}
	if !stats.CostAware {
		t.Fatalf("run over *projection.Projected not cost-aware")
	}
	if stats.Chunks < 4 || stats.Chunks > 4*chunksPerWorker+1 {
		t.Fatalf("stats.Chunks = %d, want within (4, %d]", stats.Chunks, 4*chunksPerWorker+1)
	}
	if stats.Imbalance < 1 {
		t.Fatalf("stats.Imbalance = %v, want >= 1", stats.Imbalance)
	}
	if stats.Steals < 0 {
		t.Fatalf("stats.Steals = %d, want >= 0", stats.Steals)
	}
	// The memoized projector has no O(1) degrees: uniform chunks, dynamic
	// grabbing still on.
	m := projection.NewMemoized(g, 1<<16, projection.PolicyDegree)
	if _, mstats, err := CountExactOpts(context.Background(), g, m, Options{Workers: 4}); err != nil {
		t.Fatalf("CountExactOpts memoized: %v", err)
	} else if mstats.CostAware {
		t.Fatalf("memoized run reported cost-aware chunking without O(1) degrees")
	}
}

// TestCountExactOptsCancellation asserts a cancelled context stops the kernel
// and surfaces the cancellation cause instead of counts.
func TestCountExactOptsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := skewedRandomHypergraph(rng, 40, 120)
	p := projection.Build(g)
	cause := errors.New("job evicted")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, _, err := CountExactOpts(ctx, g, p, Options{Workers: 3}); !errors.Is(err, cause) {
		t.Fatalf("CountExactOpts error = %v, want cause %v", err, cause)
	}
	if _, err := CountEdgeSamplesCtx(ctx, g, p, 500, 7, 3); !errors.Is(err, cause) {
		t.Fatalf("CountEdgeSamplesCtx error = %v, want cause %v", err, cause)
	}
	if _, err := CountWedgeSamplesCtx(ctx, g, p, p, 500, 7, 3); !errors.Is(err, cause) {
		t.Fatalf("CountWedgeSamplesCtx error = %v, want cause %v", err, cause)
	}
}

// TestSamplingDeterministicAcrossWorkers asserts the block-scheduling
// guarantee: RNG streams attach to sample blocks, not workers, so a fixed
// seed reproduces the estimate bit-for-bit at every worker count. The sample
// counts cover one partial block, exactly one block, one sample past it, and
// several blocks.
func TestSamplingDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := skewedRandomHypergraph(rng, 30, 70)
	p := projection.Build(g)
	for _, n := range []int{1, sampleBlock, sampleBlock + 1, 300} {
		edgeBase := CountEdgeSamples(g, p, n, 99, 1)
		wedgeBase := CountWedgeSamples(g, p, p, n, 99, 1)
		if edgeBase.Total() == 0 || wedgeBase.Total() == 0 {
			t.Fatalf("n=%d: no instance sampled (edge %v, wedge %v)", n, edgeBase.String(), wedgeBase.String())
		}
		for _, workers := range []int{2, 3, 8} {
			if got := CountEdgeSamples(g, p, n, 99, workers); got != edgeBase {
				t.Fatalf("edge sampling n=%d workers=%d: %v != workers=1 %v", n, workers, got.String(), edgeBase.String())
			}
			if got := CountWedgeSamples(g, p, p, n, 99, workers); got != wedgeBase {
				t.Fatalf("wedge sampling n=%d workers=%d: %v != workers=1 %v", n, workers, got.String(), wedgeBase.String())
			}
		}
	}
}

// TestSamplingRejectsUnschedulableBudget: a budget whose sample blocks do
// not fit the anchor loop's int32 anchor space is an error, not a panic or a
// silently truncated run.
func TestSamplingRejectsUnschedulableBudget(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	ctx := context.Background()
	if c, err := CountEdgeSamplesCtx(ctx, g, p, math.MaxInt64, 1, 2); err == nil || c != (Counts{}) {
		t.Fatalf("CountEdgeSamplesCtx(MaxInt64) = %v, %v; want an error", c.String(), err)
	}
	if c, err := CountWedgeSamplesCtx(ctx, g, p, p, math.MaxInt64, 1, 2); err == nil || c != (Counts{}) {
		t.Fatalf("CountWedgeSamplesCtx(MaxInt64) = %v, %v; want an error", c.String(), err)
	}
}

// TestChunkSchedPartition asserts chunk bounds partition the anchor space
// exactly and the cursor hands out every chunk once.
func TestChunkSchedPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := skewedRandomHypergraph(rng, 50, 200)
	for _, p := range []projection.Projector{
		projection.Build(g),
		projection.NewMemoized(g, 1<<16, projection.PolicyDegree),
	} {
		for _, workers := range []int{1, 2, 7, 64} {
			s := newChunkSched(p, g.NumEdges(), workers)
			if s.bounds[0] != 0 || s.bounds[len(s.bounds)-1] != int32(g.NumEdges()) {
				t.Fatalf("%T workers=%d: bounds %v do not span [0, %d]", p, workers, s.bounds, g.NumEdges())
			}
			for i := 1; i < len(s.bounds); i++ {
				if s.bounds[i] <= s.bounds[i-1] {
					t.Fatalf("%T workers=%d: bounds not strictly increasing: %v", p, workers, s.bounds)
				}
			}
			grabbed := 0
			for s.next() >= 0 {
				grabbed++
			}
			if grabbed != s.numChunks() {
				t.Fatalf("%T workers=%d: cursor handed out %d chunks, want %d", p, workers, grabbed, s.numChunks())
			}
			if s.next() != -1 {
				t.Fatalf("exhausted cursor returned a chunk")
			}
		}
	}
}

// TestChunkSchedEmptyGraph covers the n = 0 edge case.
func TestChunkSchedEmptyGraph(t *testing.T) {
	g := hypergraph.FromEdges(1, nil)
	s := newChunkSched(projection.Build(g), 0, 4)
	if s.numChunks() != 0 {
		t.Fatalf("empty graph produced %d chunks", s.numChunks())
	}
	if s.next() != -1 {
		t.Fatalf("empty scheduler handed out a chunk")
	}
	if c, _, err := CountExactOpts(context.Background(), g, projection.Build(g), Options{Workers: 4}); err != nil || c != (Counts{}) {
		t.Fatalf("CountExactOpts on empty graph = %v, %v", c, err)
	}
}

// TestCountExactProgressStillReports pins the Options.Progress contract under
// the chunk scheduler: a final done == total call, and counts identical to
// CountExact.
func TestCountExactProgressStillReports(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := skewedRandomHypergraph(rng, 50, 300)
	p := projection.Build(g)
	want := CountExact(g, p, 1)
	var calls int
	var lastDone, lastTotal int
	var mu sync.Mutex
	got, _, err := CountExactOpts(context.Background(), g, p, Options{Workers: 4, Progress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("counts %v != serial %v", got.String(), want.String())
	}
	if calls == 0 {
		t.Fatalf("progress callback never invoked")
	}
	if lastDone != g.NumEdges() || lastTotal != g.NumEdges() {
		t.Fatalf("final progress = (%d, %d), want (%d, %d)", lastDone, lastTotal, g.NumEdges(), g.NumEdges())
	}
}
