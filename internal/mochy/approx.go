package mochy

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// sampleBlock is the unit of work the sampling estimators schedule: each
// anchor of the anchor loop is a block of this many samples. Each block owns
// an RNG stream derived from (seed, block index), so the sample set — and
// with it the estimate — depends only on the seed, not on the worker count
// or on which worker drains which block. 64 samples amortize re-seeding the
// worker's RNG while keeping redistribution fine-grained: a worker stuck on
// samples that hit hub hyperedges gives up the rest of the sample budget.
const sampleBlock = 64

// CountEdgeSamples runs MoCHy-A (Algorithm 4): it samples s hyperedges
// uniformly at random with replacement, counts every h-motif instance
// containing each sample, and rescales by |E|/(3s), which makes every
// per-motif estimate unbiased (Theorem 2). Sampling is distributed over
// workers goroutines; results are deterministic for a fixed seed at every
// worker count.
func CountEdgeSamples(g *hypergraph.Hypergraph, p projection.Projector, s int, seed int64, workers int) Counts {
	c, _ := CountEdgeSamplesCtx(context.Background(), g, p, s, seed, workers)
	return c
}

// CountEdgeSamplesCtx is CountEdgeSamples with cancellation: if ctx is
// cancelled the run stops at the next sample block on every worker and
// returns the cancellation cause. It fails when s needs more sample blocks
// than one run schedules (math.MaxInt32).
func CountEdgeSamplesCtx(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, s int, seed int64, workers int) (Counts, error) {
	if s <= 0 || g.NumEdges() == 0 {
		return Counts{}, nil
	}
	total, err := parallelSamples(ctx, workers, s, seed, func(buf *nbrBuffers) {
		i := int32(buf.rng.Intn(g.NumEdges()))
		buf.ni = append(buf.ni[:0], p.Neighbors(i)...)
		countContaining(g, p, g.Edge(int(i)), i, buf.ni, &buf.counts, buf)
	})
	if err != nil {
		return Counts{}, err
	}
	scale := float64(g.NumEdges()) / (3 * float64(s))
	for t := range total {
		total[t] *= scale
	}
	return total, nil
}

// nbrBuffers holds one sampling worker's state, reused across samples and
// sample blocks so the sampling loops allocate nothing after warmup:
// neighborhood copies (Projector implementations only guarantee the
// returned slice until the next Neighbors call), MoCHy-A's classifier, and
// MoCHy-A+'s per-wedge arrays (see countContainingWedge). For the sampled
// wedge ∧ij, shared holds S = e_i ∩ e_j, inS[k] = |S ∩ e_k| and wik[k] = ω_ik;
// both arrays are indexed by edge, cost 4·|E| bytes each, are allocated on
// first use and read 0 between wedges. tally counts the wedges' candidates by
// 7-bit pattern until fold moves them into counts, the worker's raw
// per-motif counts, once per sample block; MoCHy-A's walker adds to counts
// directly. rng is the worker's one RNG, re-seeded at the start of every
// sample block.
type nbrBuffers struct {
	ni, nj []projection.Neighbor
	pc     pairClass
	shared []int32
	inS    []int32
	wik    []int32
	rng    *rand.Rand
	tally  [1 << motif.NumRegions]int64
	counts Counts
}

// fold adds the tallied candidates to out, by motif, and clears the tally.
// motif.FromPattern maps the patterns of invalid triples to 0, which fold
// drops.
func (b *nbrBuffers) fold(out *Counts) {
	for p, n := range &b.tally {
		if n == 0 {
			continue
		}
		if id := motif.FromPattern(motif.Pattern(p)); id != 0 {
			out[id-1] += float64(n)
		}
		b.tally[p] = 0
	}
}

// EdgeSets serves the node set of every hyperedge, ascending. MoCHy-A's
// walker reads node sets only through it: a *hypergraph.Hypergraph is one,
// and so is a live graph's counter (package dynamic).
type EdgeSets interface {
	Edge(e int) []int32
}

// countContaining is the one walker for "instances containing e_i" (lines
// 4-7 of Algorithm 4). MoCHy-A runs it per sample, CountForNodeSet per
// candidate hyperedge (Table 4's HM26 features), and CountContaining per
// mutation of package dynamic's counter, which sits behind live graphs, the
// stream estimator, temporal sweeps and the benchmark's reference counts. It
// accumulates one raw (unscaled) count for every h-motif instance that
// contains the hyperedge with node set ei, visiting each such instance
// exactly once. ni is its neighborhood, sorted by edge and valid across
// Neighbors calls; self is its ID in g, or -1 for a node set that is not one
// of g's edges. Every instance found through neighbor e_j shares the pair
// {e_i, e_j}, so one pairClass per e_j classifies them all. Edges of g
// set-equal to ei may sit in ni: every triple with one of them classifies
// as motif 0.
func countContaining(g EdgeSets, p projection.Projector, ei []int32, self int32, ni []projection.Neighbor, out *Counts, buf *nbrBuffers) {
	pc := &buf.pc
	for a := 0; a < len(ni); a++ {
		j, wij := ni[a].Edge, ni[a].Overlap
		pc.reset(ei, g.Edge(int(j)), wij)
		// Candidates k ∈ N(e_i) with k after j in the list: both neighbors
		// of i (the "k ∈ N(e_i) and j < k" branch, applied to list order).
		for b := a + 1; b < len(ni); b++ {
			k, wik := ni[b].Edge, ni[b].Overlap
			if id := pc.motif(g.Edge(int(k)), p.Overlap(j, k), wik); id != 0 {
				out[id-1]++
			}
		}
		// Candidates k ∈ N(e_j) \ N(e_i) \ {e_i}: open instances centered at j.
		buf.nj = append(buf.nj[:0], p.Neighbors(j)...)
		for _, nb := range buf.nj {
			k := nb.Edge
			if _, inNi := projection.Search(ni, k); inNi || k == self {
				continue
			}
			if id := pc.motif(g.Edge(int(k)), nb.Overlap, 0); id != 0 {
				out[id-1]++
			}
		}
	}
}

// CountWedgeSamples runs MoCHy-A+ (Algorithm 5): it samples r hyperwedges
// uniformly at random with replacement via sampler, counts every h-motif
// instance containing each sampled wedge, and rescales open-motif estimates
// by |∧|/(2r) and closed-motif estimates by |∧|/(3r), which makes every
// estimate unbiased (Theorem 4). Results are deterministic for a fixed seed
// at every worker count. Each worker holds one RNG, a copy of one
// neighborhood, two arrays of 4·|E| bytes and a 1 KB pattern tally (see
// nbrBuffers).
func CountWedgeSamples(g *hypergraph.Hypergraph, p projection.Projector, sampler projection.WedgeSampler, r int, seed int64, workers int) Counts {
	c, _ := CountWedgeSamplesCtx(context.Background(), g, p, sampler, r, seed, workers)
	return c
}

// CountWedgeSamplesCtx is CountWedgeSamples with cancellation: if ctx is
// cancelled the run stops at the next sample block on every worker and
// returns the cancellation cause. It fails when r needs more sample blocks
// than one run schedules (math.MaxInt32).
func CountWedgeSamplesCtx(ctx context.Context, g *hypergraph.Hypergraph, p projection.Projector, sampler projection.WedgeSampler, r int, seed int64, workers int) (Counts, error) {
	numWedges := p.NumWedges()
	if r <= 0 || numWedges == 0 {
		return Counts{}, nil
	}
	total, err := parallelSamples(ctx, workers, r, seed, func(buf *nbrBuffers) {
		i, j := sampler.SampleWedge(buf.rng)
		countContainingWedge(g, p, i, j, buf)
	})
	if err != nil {
		return Counts{}, err
	}
	for id := 1; id <= motif.Count; id++ {
		if motif.IsOpen(id) {
			total[id-1] *= float64(numWedges) / (2 * float64(r))
		} else {
			total[id-1] *= float64(numWedges) / (3 * float64(r))
		}
	}
	return total, nil
}

// countContainingWedge tallies, by 7-bit pattern, one candidate for every
// h-motif instance containing the hyperwedge ∧ij (lines 4-5 of Algorithm
// 5), in flat passes over per-worker arrays indexed by edge (see
// nbrBuffers). Lemma 2's triple intersection |S ∩ e_k|, for S = e_i ∩ e_j,
// comes from one walk of the incidence lists of S's nodes, which adds one
// to inS[k] per node of S in e_k; every edge it reaches is e_i, e_j or a
// closed candidate, so the walk costs Σ_k |S ∩ e_k| with no search. Then:
//
//  1. ω_ik is stamped into wik for every e_k ∈ N(e_i) but e_j.
//  2. A walk of N(e_j) reads both as plain loads for every e_k but e_i,
//     tallies its pattern and clears its stamp.
//  3. A walk of N(e_i) tallies the entries still stamped, the open
//     candidates centred at e_i (ω_jk = 0, no node of S), and clears them.
//     Entries already cleared, e_j among them, tally a disconnected pattern,
//     which fold drops.
//
// Only N(e_i) is copied: N(e_j) is walked before the next Neighbors call.
func countContainingWedge(g *hypergraph.Hypergraph, p projection.Projector, i, j int32, buf *nbrBuffers) {
	buf.ni = append(buf.ni[:0], p.Neighbors(i)...)
	buf.shared = intersect(buf.shared[:0], g.Edge(int(i)), g.Edge(int(j)))
	if buf.inS == nil {
		buf.inS = make([]int32, g.NumEdges())
		buf.wik = make([]int32, g.NumEdges())
	}
	ni, inS, wik, tally := buf.ni, buf.inS, buf.wik, &buf.tally
	for _, v := range buf.shared {
		for _, k := range g.IncidentEdges(v) {
			inS[k]++
		}
	}
	for _, nb := range ni {
		wik[nb.Edge] = nb.Overlap
	}
	wik[j] = 0
	si, sj, wij := int32(g.EdgeSize(int(i))), int32(g.EdgeSize(int(j))), int32(len(buf.shared))
	// Patterns have 7 bits; masking them with 0x7f drops the tally's bounds
	// checks.
	for _, nb := range p.Neighbors(j) {
		k := nb.Edge
		if k == i {
			continue
		}
		tally[patternOf(si, sj, int32(g.EdgeSize(int(k))), wij, nb.Overlap, wik[k], inS[k])&0x7f]++
		wik[k] = 0
	}
	// patternOf with ω_jk = |S ∩ e_k| = 0, whose B and AB bits are fixed.
	open := motif.Pattern(nonEmpty(sj-wij)<<motif.RegionB | 1<<motif.RegionAB)
	for _, nb := range ni {
		k := nb.Edge
		w := wik[k]
		tally[(open|motif.Pattern(nonEmpty(si-wij-w)<<motif.RegionA|
			nonEmpty(int32(g.EdgeSize(int(k)))-w)<<motif.RegionC|
			nonEmpty(w)<<motif.RegionCA))&0x7f]++
		wik[k] = 0
	}
	for _, v := range buf.shared {
		for _, k := range g.IncidentEdges(v) {
			inS[k] = 0
		}
	}
}

// parallelSamples draws n > 0 samples on the anchor loop (see run), whose
// anchors are blocks of sampleBlock samples: block b re-seeds the worker's
// RNG from (seed, b) and calls sample for each of its samples, which counts
// into the worker's nbrBuffers, and then folds the worker's tally into its
// counts. Every worker writes only to buffers of its own, and the merge adds
// their counts. Because streams attach to blocks rather than workers, and
// raw per-motif counts are integers (merge order cannot perturb them), the
// result is identical for every worker count. It fails when the blocks do
// not fit the anchor loop's int32 anchor space.
func parallelSamples(ctx context.Context, workers, n int, seed int64, sample func(buf *nbrBuffers)) (Counts, error) {
	blocks := (n-1)/sampleBlock + 1
	if blocks > math.MaxInt32 {
		return Counts{}, fmt.Errorf("mochy: %d samples need %d sample blocks, more than the %d one run schedules", n, blocks, math.MaxInt32)
	}
	opts := Options{Workers: workers}
	bufs := make([]*nbrBuffers, opts.workers())
	var total Counts
	_, err := run(ctx, nil, blocks, opts, nil, func(w int) anchorFunc {
		buf := &nbrBuffers{rng: rand.New(rand.NewSource(seed))}
		bufs[w] = buf
		return func(b int32) {
			buf.rng.Seed(seed + int64(b)*0x9e3779b9)
			for left := min(sampleBlock, n-int(b)*sampleBlock); left > 0; left-- {
				sample(buf)
			}
			buf.fold(&buf.counts)
		}
	}, func() {
		for _, buf := range bufs {
			total.add(&buf.counts)
		}
	})
	return total, err
}
