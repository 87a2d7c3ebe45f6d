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
//     as an x in both out(u) and out(v) for some v in out(u) (Chiba–Nishizeki
//     1985; the "forward" algorithm of Schank–Wagner 2005). At each anchor
//     u, every x in out(u) gets a bitmask over e_u's nodes, so Lemma 2's
//     triple intersection of a triangle is popcount(mask(v) ∧ mask(x)).
//     The triangle is tallied once under a 10-bit key: its 7-bit pattern
//     and, per member, whether it keeps nodes of its own as if the triple
//     were open. The merge folds each key once into the closed counts and
//     takes the key's three as-if-open classes, one per member as center,
//     back out of the tallies.

import (
	"context"
	"math/bits"

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

// mark records that x is in out(anchor), with ω(anchor, x) and the slot of
// x in out(anchor), which indexes x's node mask.
type mark struct{ anchor, overlap, slot int32 }

// orientedWorker is one worker's state of the oriented counter.
type orientedWorker struct {
	g *hypergraph.Hypergraph
	p *projection.Projected
	o *orientation
	// marks[x] is stamped while the worker lists the triangles of the
	// anchor: 12·|E| bytes per worker.
	marks []mark
	// pos[n] is 1 + node n's position in the anchor's node list while the
	// worker lists the anchor's triangles, and 0 otherwise: 4·|V| bytes per
	// worker.
	pos []int32
	// masks holds ⌈|e_u|/64⌉ words per out-neighbour x of the anchor u, in
	// out(u) order, with bit i set when e_x holds e_u's i-th node.
	masks []uint64
	// cum[s][ω] counts the anchor's neighbors with overlap ≤ ω and subset
	// bit s (1 when the neighbor keeps nodes outside the anchor).
	cum [2][]int64
	// open[own][outer] tallies every anchor pair as if open.
	open [2][3]int64
	// tri counts the triangles listed so far by triKey: 8 KB per worker.
	tri [1 << 10]int64
}

func newOrientedWorker(g *hypergraph.Hypergraph, p *projection.Projected, o *orientation) *orientedWorker {
	w := &orientedWorker{g: g, p: p, o: o, marks: make([]mark, g.NumEdges()), pos: make([]int32, g.NumNodes())}
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

// closeTriangles tallies the triangles whose lowest end is u by triKey.
// Each x in out(u) gets a mask of e_u's nodes that e_x holds, built by
// looking e_x's nodes up in pos, so a triangle's triple intersection is
// the popcount of its two outer members' masks.
func (w *orientedWorker) closeTriangles(u int32) {
	out := w.o.outOf(u)
	if len(out) < 2 {
		return
	}
	eu := w.g.Edge(int(u))
	su := int32(len(eu))
	for i, n := range eu {
		w.pos[n] = int32(i) + 1
	}
	words := (len(eu) + 63) / 64
	if n := len(out) * words; cap(w.masks) < n {
		w.masks = make([]uint64, n)
	}
	masks := w.masks[:len(out)*words]
	clear(masks)
	for s, nb := range out {
		w.marks[nb.Edge] = mark{anchor: u, overlap: nb.Overlap, slot: int32(s)}
		m, left := masks[s*words:(s+1)*words], nb.Overlap
		for _, n := range w.g.Edge(int(nb.Edge)) {
			if i := w.pos[n] - 1; i >= 0 {
				m[i>>6] |= 1 << (i & 63)
				if left--; left == 0 {
					break
				}
			}
		}
	}
	for s, a := range out {
		v, wuv := a.Edge, a.Overlap
		sv := int32(w.g.EdgeSize(int(v)))
		mv := masks[s*words : (s+1)*words]
		for _, b := range w.o.outOf(v) {
			m := w.marks[b.Edge]
			if m.anchor != u {
				continue
			}
			x, wvx, wux := b.Edge, b.Overlap, m.overlap
			sx := int32(w.g.EdgeSize(int(x)))
			var abc int
			for i, word := range masks[int(m.slot)*words : int(m.slot+1)*words] {
				abc += bits.OnesCount64(word & mv[i])
			}
			w.tri[triKey(patternOf(su, sv, sx, wuv, wvx, wux, int32(abc)),
				wuv+wux < su, wuv+wvx < sv, wux+wvx < sx)]++
		}
	}
	for _, n := range eu {
		w.pos[n] = 0
	}
}

// triKey is a triangle {u, v, x}'s key: its pattern (a = u, b = v, c = x)
// in bits 0-6, and in bits 7, 8 and 9 whether u, v and x keep nodes of
// their own as if the triple were open (ω_uv + ω_ux < |e_u|, and likewise).
func triKey(p motif.Pattern, ownU, ownV, ownX bool) int {
	return int(p) | b2i(ownU)<<7 | b2i(ownV)<<8 | b2i(ownX)<<9
}

// foldTriangles adds n triangles of key k to total: their motif, and minus
// their three as-if-open classes. A member's outer edges keep nodes outside
// it when the pattern has the regions they hold apart from it: for u that
// is e_v \ e_u = B ∪ BC and e_x \ e_u = C ∪ BC.
func foldTriangles(total *Counts, k int, n int64) {
	p := motif.Pattern(k & 0x7f)
	has := func(r1, r2 int) int { return b2i(p&(1<<r1|1<<r2) != 0) }
	if id := motif.FromPattern(p); id != 0 {
		total[id-1] += float64(n)
	}
	own := [3]int{k >> 7 & 1, k >> 8 & 1, k >> 9 & 1}
	outer := [3]int{
		has(motif.RegionB, motif.RegionBC) + has(motif.RegionC, motif.RegionBC),
		has(motif.RegionA, motif.RegionCA) + has(motif.RegionC, motif.RegionCA),
		has(motif.RegionA, motif.RegionAB) + has(motif.RegionB, motif.RegionAB),
	}
	for m := range own {
		total[openMotif[own[m]][outer[m]]-1] -= float64(n)
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
// part of the Setup phase. The merge sums the workers' triangle tallies and
// folds each key once.
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
		var tri [1 << 10]int64
		for _, w := range workers {
			for own := range w.open {
				for outer, n := range w.open[own] {
					total[openMotif[own][outer]-1] += float64(n)
				}
			}
			for k, n := range w.tri {
				tri[k] += n
			}
		}
		for k, n := range tri {
			if n != 0 {
				foldTriangles(&total, k, n)
			}
		}
	})
	return total, stats, err
}
