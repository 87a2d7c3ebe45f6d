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
	total, err := parallelSamples(ctx, workers, s, seed, func(out *Counts, buf *nbrBuffers) {
		i := int32(buf.rng.Intn(g.NumEdges()))
		buf.ni = append(buf.ni[:0], p.Neighbors(i)...)
		countContaining(g, p, g.Edge(int(i)), i, buf.ni, out, buf)
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
// MoCHy-A+'s shared nodes S = e_i ∩ e_j of the sampled wedge with its
// counter inS, where inS[k] = |S ∩ e_k| while a wedge is being counted and 0
// otherwise. The counter costs 4·|E| bytes, allocated on first use. rng is
// the worker's one RNG, re-seeded at the start of every sample block.
type nbrBuffers struct {
	ni, nj []projection.Neighbor
	pc     pairClass
	shared []int32
	inS    []int32
	rng    *rand.Rand
}

// countContaining is the one walker for "instances containing e_i" (lines
// 4-7 of Algorithm 4): it accumulates one raw (unscaled) count for every
// h-motif instance that contains the hyperedge with node set ei, visiting
// each such instance exactly once. ni is its neighborhood, sorted by edge
// and valid across Neighbors calls; self is its ID in g, or -1 for a node
// set that is not one of g's edges. Every instance found through neighbor
// e_j shares the pair {e_i, e_j}, so one pairClass per e_j classifies them
// all. Edges of g set-equal to ei may sit in ni: every triple with one of
// them classifies as motif 0.
func countContaining(g *hypergraph.Hypergraph, p projection.Projector, ei []int32, self int32, ni []projection.Neighbor, out *Counts, buf *nbrBuffers) {
	pc := &buf.pc
	for a := 0; a < len(ni); a++ {
		j, wij := ni[a].Edge, ni[a].Overlap
		pc.reset(g, ei, j, wij)
		// Candidates k ∈ N(e_i) with k after j in the list: both neighbors
		// of i (the "k ∈ N(e_i) and j < k" branch, applied to list order).
		for b := a + 1; b < len(ni); b++ {
			k, wik := ni[b].Edge, ni[b].Overlap
			if id := pc.motif(k, p.Overlap(j, k), wik); id != 0 {
				out[id-1]++
			}
		}
		// Candidates k ∈ N(e_j) \ N(e_i) \ {e_i}: open instances centered at j.
		buf.nj = append(buf.nj[:0], p.Neighbors(j)...)
		for _, nb := range buf.nj {
			k := nb.Edge
			if k == self || containsEdge(ni, k) {
				continue
			}
			if id := pc.motif(k, nb.Overlap, 0); id != 0 {
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
// at every worker count. Each worker holds one RNG, copies of two
// neighborhoods and a counter of 4·|E| bytes (see nbrBuffers).
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
	total, err := parallelSamples(ctx, workers, r, seed, func(out *Counts, buf *nbrBuffers) {
		i, j := sampler.SampleWedge(buf.rng)
		countContainingWedge(g, p, i, j, out, buf)
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

// countContainingWedge accumulates one raw count for every h-motif instance
// containing the hyperwedge ∧ij (lines 4-5 of Algorithm 5), walking the two
// sorted neighborhoods with a single merge so each candidate e_k in
// N(e_i) ∪ N(e_j) \ {e_i, e_j} is visited once with both overlaps in hand.
// Lemma 2's triple intersection |S ∩ e_k|, for S = e_i ∩ e_j, comes from one
// walk of the incidence lists of S's nodes, which adds one to inS[k] per
// node of S in e_k. Every edge it reaches holds a node of S, so it is e_i,
// e_j or a closed candidate, and the walk costs Σ_k |S ∩ e_k| with no
// search; each candidate then reads its triple intersection as one load
// (0 for an open one), and a second walk clears the entries the first set.
func countContainingWedge(g *hypergraph.Hypergraph, p projection.Projector, i, j int32, out *Counts, buf *nbrBuffers) {
	buf.ni = append(buf.ni[:0], p.Neighbors(i)...)
	buf.nj = append(buf.nj[:0], p.Neighbors(j)...)
	buf.shared = intersect(buf.shared[:0], g.Edge(int(i)), g.Edge(int(j)))
	if buf.inS == nil {
		buf.inS = make([]int32, g.NumEdges())
	}
	ni, nj, inS := buf.ni, buf.nj, buf.inS
	for _, v := range buf.shared {
		for _, k := range g.IncidentEdges(v) {
			inS[k]++
		}
	}
	si, sj, wij := int32(g.EdgeSize(int(i))), int32(g.EdgeSize(int(j))), int32(len(buf.shared))
	a, b := 0, 0
	for a < len(ni) || b < len(nj) {
		var k, wik, wjk int32
		switch {
		case b == len(nj) || (a < len(ni) && ni[a].Edge < nj[b].Edge):
			k, wik = ni[a].Edge, ni[a].Overlap
			a++
		case a == len(ni) || nj[b].Edge < ni[a].Edge:
			k, wjk = nj[b].Edge, nj[b].Overlap
			b++
		default: // same edge in both neighborhoods
			k, wik, wjk = ni[a].Edge, ni[a].Overlap, nj[b].Overlap
			a++
			b++
		}
		if k == i || k == j {
			continue
		}
		sk := int32(g.EdgeSize(int(k)))
		if id := motif.FromPattern(patternOf(si, sj, sk, wij, wjk, wik, inS[k])); id != 0 {
			out[id-1]++
		}
	}
	for _, v := range buf.shared {
		for _, k := range g.IncidentEdges(v) {
			inS[k] = 0
		}
	}
}

// parallelSamples draws n > 0 samples on the anchor loop (see run), whose
// anchors are blocks of sampleBlock samples: block b re-seeds the worker's
// RNG from (seed, b) and calls sample for each of its samples. Because
// streams attach to blocks rather than workers, and raw per-motif counts are
// integer increments (merge order cannot perturb them), the result is
// identical for every worker count. It fails when the blocks do not fit the
// anchor loop's int32 anchor space.
func parallelSamples(ctx context.Context, workers, n int, seed int64, sample func(out *Counts, buf *nbrBuffers)) (Counts, error) {
	blocks := (n-1)/sampleBlock + 1
	if blocks > math.MaxInt32 {
		return Counts{}, fmt.Errorf("mochy: %d samples need %d sample blocks, more than the %d one run schedules", n, blocks, math.MaxInt32)
	}
	opts := Options{Workers: workers}
	results := make([]Counts, opts.workers())
	var total Counts
	_, err := run(ctx, nil, blocks, opts, nil, func(w int) anchorFunc {
		buf := nbrBuffers{rng: rand.New(rand.NewSource(seed))}
		return func(b int32) {
			buf.rng.Seed(seed + int64(b)*0x9e3779b9)
			for left := min(sampleBlock, n-int(b)*sampleBlock); left > 0; left-- {
				sample(&results[w], &buf)
			}
		}
	}, func() {
		for w := range results {
			total.add(&results[w])
		}
	})
	return total, err
}

// containsEdge binary-searches a sorted neighborhood for edge k.
func containsEdge(ns []projection.Neighbor, k int32) bool {
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid].Edge < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo].Edge == k
}
