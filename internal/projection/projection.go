// Package projection builds and serves the projected graph G¯ = (E, ∧, ω) of
// a hypergraph (Algorithm 1 of the MoCHy paper): hyperedges act as vertices,
// two hyperedges are adjacent iff they share a node, and the edge weight
// ω(∧ij) = |e_i ∩ e_j|.
//
// The package offers two implementations of the Projector interface: the
// fully materialized Projected (Algorithm 1), stored flat as per-hyperedge
// offsets into one array of 2|∧| neighbors and built in three passes with
// no sort, in O(Σ_{∧ij} |e_i ∩ e_j| + |∧|) time, and the on-the-fly Memoized
// projector of Section 3.4, which computes neighborhoods lazily under a
// memory budget with configurable retention policies.
package projection

import (
	"cmp"
	"slices"
	"sort"

	"mochy/internal/hypergraph"
)

// Neighbor is one adjacency of the projected graph: the neighboring hyperedge
// and the overlap ω = |e_i ∩ e_j| ≥ 1.
type Neighbor struct {
	Edge    int32
	Overlap int32
}

// Projector serves projected-graph neighborhoods. Implementations must
// return exact neighborhoods (the on-the-fly variant trades recomputation
// for memory, never accuracy).
type Projector interface {
	// NumEdges returns the number of hyperedges (vertices of G¯).
	NumEdges() int
	// Neighbors returns the neighborhood of hyperedge e sorted by Edge.
	// The slice must be treated as read-only and is only guaranteed valid
	// until the next Neighbors call (the memoized projector may recycle it).
	Neighbors(e int32) []Neighbor
	// Overlap returns ω(∧ij), or 0 if the two hyperedges are not adjacent.
	Overlap(i, j int32) int32
	// NumWedges returns |∧|, the number of hyperwedges.
	NumWedges() int64
}

// Projected is the fully materialized projected graph, stored flat: the
// neighborhood of hyperedge e is nbrs[off[e]:off[e+1]], sorted by Edge. Each
// hyperwedge owns one entry in each of its two rows, so nbrs holds 2|∧|
// entries, and off[e] is also the rank of N_e's first entry among them,
// which WedgeAt searches. The layout costs 8·(|E|+1) + 16·|∧| bytes, with no
// per-row slice headers.
type Projected struct {
	off  []int64
	nbrs []Neighbor
}

// Build materializes the projected graph of g (Algorithm 1). Time is
// O(Σ_{∧ij} |e_i ∩ e_j| + |∧|), Lemma 1's bound, with no sort; space is
// O(|E| + |∧|).
//
// It takes two passes over the pairs i < j, each found once from anchor e_i
// as degrees finds them, and then one pass over the rows. The first
// (degrees) counts every row's degree, and the prefix sums of the counts
// size the one backing array. The second tallies the anchor's overlaps in
// place in its upper part (neighbors above i), in discovery order, and
// copies each entry into the row of the other end. Anchors run in ascending
// order, so those copies fill every row's lower part already sorted, and it
// is complete by the time the row is an anchor. The last pass mirrors the
// lower parts back: row j's lower entry (i, ω) goes to the next slot of
// row i's upper part, and rows run in ascending j, so every upper part is
// rewritten in ascending order.
func Build(g *hypergraph.Hypergraph) *Projected {
	n := g.NumEdges()
	off := make([]int64, n+1)
	degrees(g, off[1:])
	for e := 0; e < n; e++ {
		off[e+1] += off[e]
	}
	nbrs := make([]Neighbor, off[n])
	// next[e] is where the next lower neighbor of e goes, and after the
	// tally pass where the next upper one goes.
	next := make([]int64, n)
	copy(next, off)
	// slot[j] is the position of j's entry in the current anchor's upper
	// part; earlier anchors leave positions below it.
	slot := make([]int64, n)
	for j := range slot {
		slot[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, end := next[i], next[i]
		for _, v := range g.Edge(i) {
			inc := g.IncidentEdges(v)
			for k := len(inc) - 1; inc[k] > int32(i); k-- {
				j := inc[k]
				if s := slot[j]; s >= lo {
					nbrs[s].Overlap++
					continue
				}
				slot[j] = end
				nbrs[end] = Neighbor{Edge: j, Overlap: 1}
				end++
			}
		}
		for _, nb := range nbrs[lo:end] {
			nbrs[next[nb.Edge]] = Neighbor{Edge: int32(i), Overlap: nb.Overlap}
			next[nb.Edge]++
		}
	}
	// Row j's lower part is nbrs[off[j]:next[j]] until row j itself is
	// mirrored: only rows after it advance next[j].
	for j := 0; j < n; j++ {
		for _, nb := range nbrs[off[j]:next[j]] {
			nbrs[next[nb.Edge]] = Neighbor{Edge: int32(j), Overlap: nb.Overlap}
			next[nb.Edge]++
		}
	}
	return &Projected{off: off, nbrs: nbrs}
}

// degrees adds every hyperedge's degree in G¯ to deg[e] and returns |∧|. It
// finds each pair i < j once, from anchor e_i, by walking the incidence list
// of every node of e_i from its end down to i; a stamp per hyperedge skips
// the j already found through another shared node.
func degrees(g *hypergraph.Hypergraph, deg []int64) int64 {
	n := g.NumEdges()
	// stamp[j] = i+1 once anchor i has found j.
	stamp := make([]int32, n)
	var wedges int64
	for i := 0; i < n; i++ {
		var upper int64
		for _, v := range g.Edge(i) {
			inc := g.IncidentEdges(v)
			for k := len(inc) - 1; inc[k] > int32(i); k-- {
				if j := inc[k]; stamp[j] != int32(i+1) {
					stamp[j] = int32(i + 1)
					deg[j]++
					upper++
				}
			}
		}
		deg[i] += upper
		wedges += upper
	}
	return wedges
}

// NumEdges returns the number of hyperedges.
func (p *Projected) NumEdges() int { return len(p.off) - 1 }

// Neighbors returns the sorted neighborhood of hyperedge e. Its capacity ends
// with the row, so appending to it never overwrites the next one.
func (p *Projected) Neighbors(e int32) []Neighbor {
	lo, hi := p.off[e], p.off[e+1]
	return p.nbrs[lo:hi:hi]
}

// Degree returns |N_{e}|, the degree of hyperedge e in G¯.
func (p *Projected) Degree(e int32) int { return int(p.off[e+1] - p.off[e]) }

// Overlap returns ω(∧ij), or 0 if not adjacent. It binary-searches the
// smaller of the two neighborhoods, so a probe between a projected-graph hub
// and a hyperedge with a handful of neighbors costs the small side's log.
func (p *Projected) Overlap(i, j int32) int32 {
	ni, nj := p.Neighbors(i), p.Neighbors(j)
	if len(nj) < len(ni) {
		return lookupOverlap(nj, i)
	}
	return lookupOverlap(ni, j)
}

// OverlapOriented is Overlap, which already probes the cheaper side.
func (p *Projected) OverlapOriented(i, j int32) int32 { return p.Overlap(i, j) }

// NumWedges returns |∧|.
func (p *Projected) NumWedges() int64 { return int64(len(p.nbrs) / 2) }

// WedgeAt maps a rank in [0, 2|∧|) to a hyperwedge: each wedge owns exactly
// two adjacency entries, so a uniform rank yields a uniform wedge. Rank r is
// entry r of nbrs, in the row e with off[e] ≤ r < off[e+1].
func (p *Projected) WedgeAt(rank int64) (i, j int32) {
	e := sort.Search(len(p.off)-1, func(e int) bool {
		return p.off[e+1] > rank
	})
	return int32(e), p.nbrs[rank].Edge
}

// MaxDegree returns the maximum degree in G¯.
func (p *Projected) MaxDegree() int {
	m := 0
	for e := 0; e < p.NumEdges(); e++ {
		m = max(m, p.Degree(int32(e)))
	}
	return m
}

// lookupOverlap binary-searches a sorted neighborhood for edge j.
func lookupOverlap(ns []Neighbor, j int32) int32 {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].Edge >= j })
	if i < len(ns) && ns[i].Edge == j {
		return ns[i].Overlap
	}
	return 0
}

// ComputeNeighborhood computes the exact neighborhood of hyperedge e directly
// from the hypergraph, without any precomputed projection. scratch is reused
// across calls; pass the same map to amortize allocations.
func ComputeNeighborhood(g *hypergraph.Hypergraph, e int32, scratch map[int32]int32) []Neighbor {
	clear(scratch)
	for _, v := range g.Edge(int(e)) {
		for _, j := range g.IncidentEdges(v) {
			if j != e {
				scratch[j]++
			}
		}
	}
	out := make([]Neighbor, 0, len(scratch))
	for j, w := range scratch {
		out = append(out, Neighbor{Edge: j, Overlap: w})
	}
	slices.SortFunc(out, func(a, b Neighbor) int { return cmp.Compare(a.Edge, b.Edge) })
	return out
}

// CountWedges counts |∧| without materializing the adjacency, with Build's
// count pass and O(|E|) extra memory. The on-the-fly projector sizes its
// wedge sampler with it.
func CountWedges(g *hypergraph.Hypergraph) int64 {
	return degrees(g, make([]int64, g.NumEdges()))
}
