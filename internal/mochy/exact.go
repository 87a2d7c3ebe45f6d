package mochy

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
)

// Instance is one h-motif instance: three connected hyperedges and the ID of
// the motif describing their connectivity pattern.
type Instance struct {
	A, B, C int32 // hyperedge IDs
	Motif   int   // 1..26
}

// Options configures a counting kernel run.
type Options struct {
	// Workers is the number of goroutines; values < 1 mean 1.
	Workers int
	// Progress, when non-nil, is invoked with (done, total) anchor hyperedges
	// as the run advances. It may be called concurrently from multiple
	// workers and must be goroutine-safe; it is always invoked once with
	// done == total before a successful return.
	Progress func(done, total int)
}

// mergeFactor gates the merge-style intersection in the pair loop: when the
// shared neighbor e_j has degree below mergeFactor × the remaining anchor
// neighborhood, one merge walk over N(e_j) (cost deg(j) + rest) beats a
// binary search per pair (cost rest × log deg(j)).
const mergeFactor = 8

// kern bundles a pair-loop run's inputs. proj is p when it is materialized,
// whose O(1) degrees and stable Neighbors slices are the preconditions for
// holding N(e_j) across a merge walk.
type kern struct {
	g    *hypergraph.Hypergraph
	p    projection.Projector
	proj *projection.Projected // nil for the memoized projector
}

// anchorPairs enumerates the instances anchored at hyperedge i per the
// Algorithm 2 dedup rule (closed triples counted only from their smallest
// member), classifies each through pc and invokes visit for each valid
// instance. The anchor neighborhood is copied into buf (returned for reuse)
// because projectors only guarantee the slice until the next Neighbors call.
//
// For each neighbor e_j, the remaining pairs {e_j, e_k} share the pair
// {e_i, e_j}, so pc classifies them all from one e_i ∩ e_j, and they need
// ω(∧jk). Two strategies: an overlap probe per pair (Projected.Overlap
// probes the cheaper side), or — when e_j's own neighborhood is small
// relative to the remaining pairs and the projector hands out stable sorted
// slices — one merge-style walk of N(e_j) against the rest of the anchor
// neighborhood, which visits each side once instead of paying a search per
// pair.
func (k *kern) anchorPairs(i int32, buf []projection.Neighbor, pc *pairClass, visit visitFunc) []projection.Neighbor {
	ns := append(buf[:0], k.p.Neighbors(i)...)
	ei := k.g.Edge(int(i))
	for a := 0; a+1 < len(ns); a++ {
		j, wij := ns[a].Edge, ns[a].Overlap
		pc.reset(ei, k.g.Edge(int(j)), wij)
		rest := ns[a+1:]
		if k.proj != nil && k.proj.Degree(j) < mergeFactor*len(rest) {
			adjJ := k.p.Neighbors(j)
			m := 0
			for b := range rest {
				kk, wik := rest[b].Edge, rest[b].Overlap
				for m < len(adjJ) && adjJ[m].Edge < kk {
					m++
				}
				var wjk int32
				if m < len(adjJ) && adjJ[m].Edge == kk {
					wjk = adjJ[m].Overlap
				}
				if wjk != 0 && (i > j || i > kk) {
					continue // closed: counted only from the smallest ID
				}
				if id := pc.motif(k.g.Edge(int(kk)), wjk, wik); id != 0 {
					visit(i, j, kk, id)
				}
			}
			continue
		}
		for b := range rest {
			kk, wik := rest[b].Edge, rest[b].Overlap
			wjk := k.p.Overlap(j, kk)
			if wjk != 0 && (i > j || i > kk) {
				continue
			}
			if id := pc.motif(k.g.Edge(int(kk)), wjk, wik); id != 0 {
				visit(i, j, kk, id)
			}
		}
	}
	return ns
}

// progressStride is how many anchor hyperedges a worker processes between
// progress reports. Coarse enough that the atomic add and callback cost are
// invisible next to the triple enumeration, fine enough that long counts
// report at sub-second intervals.
const progressStride = 256

// workers resolves Options.Workers to the goroutine count a run uses.
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// visitFunc receives one classified instance {e_i, e_j, e_k} of motif id.
type visitFunc func(i, j, k int32, id int)

// anchorFunc processes one anchor on a worker's goroutine.
type anchorFunc func(i int32)

// run is the one anchor loop behind every counting path: the oriented
// counter, the Algorithm-2 pair loop (counting, per-edge counting and
// enumeration) and both samplers differ only in what a worker does with each
// anchor. An anchor is a hyperedge on the exact paths, and a block of
// samples on the sampling paths (see parallelSamples). Anchors [0, n) are
// handed to workers through an atomic chunk cursor over ranges sized by
// estimated pair work when p is a *projection.Projected (C(deg, 2) prefix
// sums; p is nil for sample blocks, which cost alike), so a worker that
// lands on a projected-graph hub does not serialize the run the way a static
// stride partition would. setup, which may be nil, runs once before the workers
// start and is timed with the scheduler as the Setup phase. newWorker is
// called once on each worker's goroutine and returns the function that
// worker feeds its anchors to; at workers=1 anchors are visited in
// ascending order. merge (which may be nil) folds the per-worker results
// once every worker has finished.
//
// If ctx is cancelled the run stops at the next anchor boundary on every
// worker and returns the cancellation cause without merging. The returned
// KernelStats describe the run's scheduling and phase timings whether or not
// it completed. Progress, when set, is reported every progressStride anchors
// and once with done == total after a successful merge.
func run(ctx context.Context, p projection.Projector, n int, opts Options, setup func(), newWorker func(w int) anchorFunc, merge func()) (KernelStats, error) {
	workers := opts.workers()
	stats := KernelStats{Workers: workers}

	setupStart := time.Now()
	sched := newChunkSched(p, n, workers)
	if setup != nil {
		setup()
	}
	stats.Chunks = sched.numChunks()
	stats.CostAware = sched.costAware
	stats.Setup = time.Since(setupStart)

	var doneCh <-chan struct{}
	if ctx != nil {
		doneCh = ctx.Done()
	}

	grabs := make([]int64, workers)
	busy := make([]time.Duration, workers)
	var reported atomic.Int64
	enumStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			defer func() { busy[w] = time.Since(start) }()
			anchor := newWorker(w)
			sinceReport := 0
			for {
				c := sched.next()
				if c < 0 {
					break
				}
				grabs[w]++
				lo, hi := sched.chunk(c)
				for i := lo; i < hi; i++ {
					if doneCh != nil {
						select {
						case <-doneCh:
							return
						default:
						}
					}
					anchor(i)
					if opts.Progress != nil {
						if sinceReport++; sinceReport == progressStride {
							opts.Progress(int(reported.Add(int64(sinceReport))), n)
							sinceReport = 0
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Enumerate = time.Since(enumStart)
	stats.Steals, stats.Imbalance = sched.balance(grabs, busy)
	if ctx != nil && ctx.Err() != nil {
		return stats, context.Cause(ctx)
	}
	mergeStart := time.Now()
	if merge != nil {
		merge()
	}
	stats.Merge = time.Since(mergeStart)
	if opts.Progress != nil {
		opts.Progress(n, n)
	}
	return stats, nil
}

// runPairs runs the Algorithm-2 pair loop on the anchor loop: each worker
// walks every pair of each anchor's neighbors with its own pairClass and
// feeds the valid instances to the visitFunc newVisit returns for it.
func runPairs(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, opts Options, newVisit func(w int) visitFunc, merge func()) (KernelStats, error) {
	k := kern{g: g, p: p}
	k.proj, _ = p.(*projection.Projected)
	return run(ctx, p, p.NumEdges(), opts, nil, func(w int) anchorFunc {
		visit := newVisit(w)
		var pc pairClass
		var ns []projection.Neighbor
		return func(i int32) { ns = k.anchorPairs(i, ns, &pc, visit) }
	}, merge)
}

// CountExact counts every h-motif instance exactly with CountExactOpts and
// the given number of worker goroutines (values < 1 mean 1).
func CountExact(g *hypergraph.Hypergraph, p projection.Projector, workers int) Counts {
	c, _, _ := CountExactOpts(context.Background(), g, p, Options{Workers: workers})
	return c
}

// CountExactOpts is the full-control exact counter (MoCHy-E), scheduled by
// the shared anchor loop (see run). Which algorithm runs depends on the
// projector:
//
//   - On a materialized *projection.Projected it runs the oriented counter
//     (see countOriented): open instances come from a per-anchor histogram
//     of N(e_i), and closed ones are listed once each as degree-ordered
//     triangles of the projected graph. It never visits an open triple. Its
//     setup orients the projected graph into out-lists of |∧| entries, and
//     each worker holds 12·|E| bytes of marks, 4·|V| bytes of node
//     positions, the node masks of one anchor's out-neighbours and an 8 KB
//     table of triangle keys.
//   - Otherwise (the memoized projector of Section 3.4) it runs the
//     Algorithm-2 pair loop of CountPairs.
//
// Counts accumulate per worker and are merged once at the end; results are
// identical for every worker count and both algorithms. On cancellation the
// returned Counts are zero and the error is the cause.
func CountExactOpts(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, opts Options) (Counts, KernelStats, error) {
	if pp, ok := p.(*projection.Projected); ok {
		return countOriented(ctx, g, pp, opts)
	}
	return CountPairs(ctx, g, p, opts)
}

// CountPairs runs MoCHy-E as Algorithm 2 states it: for every hyperedge e_i
// and every unordered pair {e_j, e_k} of its projected-graph neighbors, the
// instance {e_i, e_j, e_k} is counted once — immediately if e_j and e_k are
// disjoint (open motifs, counted at their center), and only from the
// smallest-ID member if they overlap (closed motifs). CountExactOpts runs it
// on the memoized projector; the experiments time it to keep the
// paper's speed ratios comparable. Scheduling, cancellation, progress and
// KernelStats behave as in CountExactOpts.
func CountPairs(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, opts Options) (Counts, KernelStats, error) {
	results := make([]Counts, opts.workers())
	var total Counts
	stats, err := runPairs(ctx, g, p, opts, func(w int) visitFunc {
		local := &results[w]
		return func(_, _, _ int32, id int) { local[id-1]++ }
	}, func() {
		for w := range results {
			total.add(&results[w])
		}
	})
	return total, stats, err
}

// Enumerate runs MoCHy-EENUM (Algorithm 3) on the pair loop: it visits every
// h-motif instance exactly once, anchors in ascending order, invoking fn for
// each. Enumeration
// stops early if fn returns false. Instances are reported with A < B < C.
func Enumerate(g *hypergraph.Hypergraph, p projection.Projector, fn func(Instance) bool) {
	// Early stop reuses the anchor loop's cancellation check: fn is never
	// called again, and the loop ends at the next anchor boundary.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	stopped := false
	_, _ = runPairs(ctx, g, p, Options{Workers: 1}, func(int) visitFunc {
		return func(i, j, kk int32, id int) {
			if stopped {
				return
			}
			x, y, z := sort3(i, j, kk)
			if !fn(Instance{A: x, B: y, C: z, Motif: id}) {
				stopped = true
				stop()
			}
		}
	}, nil)
}

// PerEdgeCounts returns, for every hyperedge, how many instances of each
// h-motif contain it — the HM26 feature of Section 4.4 — together with the
// aggregate counts. The result has NumEdges rows of 26 columns and is
// identical for every worker count. It runs the Algorithm-2 pair loop, which
// visits every instance.
//
// Every worker writes into a private dense shard of the per-edge matrix (an
// instance touches three arbitrary rows, so shared rows would need an atomic
// add per touch), and shards are merged once, in parallel over row ranges.
// The shards cost workers × NumEdges × 26 int64s of transient memory, which
// is the price of contention-free writes. Cancellation behaves as in
// CountExactOpts.
func PerEdgeCounts(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, opts Options) ([][]int64, Counts, KernelStats, error) {
	workers := opts.workers()
	n := g.NumEdges()
	shards := make([][]int64, workers)
	totals := make([]Counts, workers)
	var per [][]int64
	var total Counts
	stats, err := runPairs(ctx, g, p, opts, func(w int) visitFunc {
		shard := make([]int64, n*26)
		shards[w] = shard
		local := &totals[w]
		return func(i, j, kk int32, id int) {
			t := id - 1
			shard[int(i)*26+t]++
			shard[int(j)*26+t]++
			shard[int(kk)*26+t]++
			local[t]++
		}
	}, func() {
		mergeShards(shards, n)
		for w := range totals {
			total.add(&totals[w])
		}
		flat := shards[0]
		per = make([][]int64, n)
		for e := range per {
			per[e] = flat[e*26 : (e+1)*26 : (e+1)*26]
		}
	})
	return per, total, stats, err
}

// mergeShards adds every per-worker shard into shards[0], one goroutine per
// row range.
func mergeShards(shards [][]int64, n int) {
	workers := len(shards)
	if workers < 2 {
		return
	}
	rows := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += rows {
		hi := lo + rows
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dst := shards[0][lo*26 : hi*26]
			for _, s := range shards[1:] {
				for x, v := range s[lo*26 : hi*26] {
					dst[x] += v
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// sort3 orders three edge IDs ascending.
func sort3(a, b, c int32) (int32, int32, int32) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}
