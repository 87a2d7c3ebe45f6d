package mochy

// The oriented exact counter: CountExactOpts on a materialized
// *projection.Projected. Algorithm 2 visits every pair of an anchor's
// neighbors, and each closed triple is probed from all three of its members.
// This counter visits no open triple and lists each closed triple once:
//
//   - Open triples. At anchor e_i, a pair {e_j, e_k} of neighbors that is
//     open (ω_jk = 0) has its motif fixed by three bits: whether e_i keeps
//     nodes of its own (ω_ij + ω_ik < |e_i|) and whether e_j and e_k keep
//     nodes outside e_i (ω_ij < |e_j|, ω_ik < |e_k|). One histogram of N(e_i)
//     over (ω, subset bit) tallies all C(deg, 2) pairs "as if open" into the
//     six classes of (own nodes, number of outer edges with nodes outside
//     e_i), in O(deg + |e_i|).
//   - Closed triples are the triangles of the projected graph. Each edge of
//     the projected graph is oriented from its lower to its higher
//     (degree, id) end, and a triangle is found once, from its lowest end u,
//     as a w in both out(u) and out(v) for some v in out(u) (Chiba–Nishizeki
//     1985; the "forward" algorithm of Schank–Wagner 2005). It is
//     classified once, and its three as-if-open classes, one per member as
//     center, are taken back out of the tallies.

import (
	"context"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// openMotif maps an as-if-open class to its motif: own is 1 when the center
// keeps nodes of its own, outer counts the outer edges with nodes outside
// the center. The two outer edges are disjoint, so the pattern is
// {ab, ca} plus those exclusive regions, and always valid.
var openMotif = func() (t [2][3]int) {
	for own := 0; own < 2; own++ {
		for outer := 0; outer < 3; outer++ {
			p := motif.Pattern(1<<motif.RegionAB | 1<<motif.RegionCA)
			if own == 1 {
				p |= 1 << motif.RegionA
			}
			if outer >= 1 {
				p |= 1 << motif.RegionB
			}
			if outer == 2 {
				p |= 1 << motif.RegionC
			}
			t[own][outer] = motif.FromPattern(p)
		}
	}
	return t
}()

// orientation keeps every projected edge {u, v} once, in the out-list of
// its lower end under the (degree, id) order: out(u) = out[off[u]:off[u+1]].
// The out-lists hold |∧| entries in total, and no out-degree exceeds
// √(2|∧|).
type orientation struct {
	off []int
	out []projection.Neighbor
}

// orient builds the orientation of p's projected graph.
func orient(p *projection.Projected) orientation {
	n := p.NumEdges()
	o := orientation{off: make([]int, n+1), out: make([]projection.Neighbor, 0, p.NumWedges())}
	for u := int32(0); int(u) < n; u++ {
		du := p.Degree(u)
		for _, nb := range p.Neighbors(u) {
			if dv := p.Degree(nb.Edge); dv > du || (dv == du && nb.Edge > u) {
				o.out = append(o.out, nb)
			}
		}
		o.off[u+1] = len(o.out)
	}
	return o
}

// outOf returns out(u).
func (o *orientation) outOf(u int32) []projection.Neighbor {
	return o.out[o.off[u]:o.off[u+1]]
}

// mark records that w is in out(anchor), with ω(anchor, w).
type mark struct{ anchor, overlap int32 }

// orientedWorker is one worker's state of the oriented counter.
type orientedWorker struct {
	g *hypergraph.Hypergraph
	p *projection.Projected
	o *orientation
	// marks[w] is stamped while the worker lists the triangles of the
	// anchor: 8·|E| bytes per worker.
	marks []mark
	// cum[s][ω] counts the anchor's neighbors with overlap ≤ ω and subset
	// bit s (1 when the neighbor keeps nodes outside the anchor).
	cum [2][]int64
	pc  pairClass
	// open[own][outer] tallies every anchor pair as if open, minus the
	// three as-if-open classes of every closed triple.
	open   [2][3]int64
	closed [motif.Count]int64
}

func newOrientedWorker(g *hypergraph.Hypergraph, p *projection.Projected, o *orientation) *orientedWorker {
	w := &orientedWorker{g: g, p: p, o: o, marks: make([]mark, g.NumEdges())}
	for x := range w.marks {
		w.marks[x].anchor = -1
	}
	for s := range w.cum {
		w.cum[s] = make([]int64, g.MaxEdgeSize()+1)
	}
	return w
}

// tallyOpen adds every pair of u's neighbors to the as-if-open tallies.
// Pairs with ω_uj + ω_uk ≤ |e_u| - 1 leave u nodes of its own; they are
// counted per class from prefix sums over ω, and the rest of each class is
// what remains of its C(deg, 2) share.
func (w *orientedWorker) tallyOpen(u int32) {
	ns := w.p.Neighbors(u)
	if len(ns) < 2 {
		return
	}
	size := w.g.EdgeSize(int(u))
	c0, c1 := w.cum[0][:size+1], w.cum[1][:size+1]
	var n0, n1 int64
	for _, nb := range ns {
		if int(nb.Overlap) < w.g.EdgeSize(int(nb.Edge)) {
			c1[nb.Overlap]++
			n1++
		} else {
			c0[nb.Overlap]++
			n0++
		}
	}
	for x := 1; x <= size; x++ {
		c0[x] += c0[x-1]
		c1[x] += c1[x-1]
	}
	// Ordered pairs (j, k) with ω_uj = x and ω_uk ≤ size-1-x, per subset
	// bits; the same-bit sums include j = k when 2x ≤ size-1.
	var o00, o01, o11 int64
	for x := 1; x <= size-2; x++ {
		h0, h1 := c0[x]-c0[x-1], c1[x]-c1[x-1]
		r0, r1 := c0[size-1-x], c1[size-1-x]
		o00 += h0 * r0
		o01 += h0 * r1
		o11 += h1 * r1
	}
	half := (size - 1) / 2
	own := [3]int64{(o00 - c0[half]) / 2, o01, (o11 - c1[half]) / 2}
	all := [3]int64{n0 * (n0 - 1) / 2, n0 * n1, n1 * (n1 - 1) / 2}
	for outer := range own {
		w.open[1][outer] += own[outer]
		w.open[0][outer] += all[outer] - own[outer]
	}
	clear(c0)
	clear(c1)
}

// closeTriangles lists the triangles whose lowest end is u, classifies each
// from S = e_u ∩ e_v, computed once per (u, v), and takes their three
// as-if-open classes back out of the tallies.
func (w *orientedWorker) closeTriangles(u int32) {
	out := w.o.outOf(u)
	if len(out) < 2 {
		return
	}
	for _, nb := range out {
		w.marks[nb.Edge] = mark{anchor: u, overlap: nb.Overlap}
	}
	eu := w.g.Edge(int(u))
	su := int32(len(eu))
	for _, a := range out {
		v, wuv := a.Edge, a.Overlap
		w.pc.reset(w.g, eu, v, wuv)
		sv := w.pc.sj
		for _, b := range w.o.outOf(v) {
			m := w.marks[b.Edge]
			if m.anchor != u {
				continue
			}
			x, wvx, wux := b.Edge, b.Overlap, m.overlap
			sx := int32(w.g.EdgeSize(int(x)))
			w.open[b2i(wuv+wux < su)][b2i(wuv < sv)+b2i(wux < sx)]--
			w.open[b2i(wuv+wvx < sv)][b2i(wuv < su)+b2i(wvx < sx)]--
			w.open[b2i(wux+wvx < sx)][b2i(wux < su)+b2i(wvx < sv)]--
			if id := w.pc.motif(x, wvx, wux); id != 0 {
				w.closed[id-1]++
			}
		}
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countOriented runs the oriented counter on the anchor loop. Each worker
// runs both passes per anchor, so chunks, cancellation, progress and
// KernelStats behave as for the pair loop; orienting the projected graph is
// part of the Setup phase.
func countOriented(ctx context.Context, g *hypergraph.Hypergraph, p *projection.Projected, opts Options) (Counts, KernelStats, error) {
	var o orientation
	workers := make([]*orientedWorker, opts.workers())
	var total Counts
	stats, err := run(ctx, p, p.NumEdges(), opts, func() { o = orient(p) }, func(x int) anchorFunc {
		w := newOrientedWorker(g, p, &o)
		workers[x] = w
		return func(u int32) {
			w.tallyOpen(u)
			w.closeTriangles(u)
		}
	}, func() {
		for _, w := range workers {
			for own := range w.open {
				for outer, n := range w.open[own] {
					total[openMotif[own][outer]-1] += float64(n)
				}
			}
			for t, n := range w.closed {
				total[t] += float64(n)
			}
		}
	})
	return total, stats, err
}
