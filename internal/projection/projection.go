// Package projection builds and serves the projected graph G¯ = (E, ∧, ω) of
// a hypergraph (Algorithm 1 of the MoCHy paper): hyperedges act as vertices,
// two hyperedges are adjacent iff they share a node, and the edge weight
// ω(∧ij) = |e_i ∩ e_j|.
//
// The package offers two implementations of the Projector interface: the
// fully materialized Projected (Algorithm 1) and the on-the-fly Memoized
// projector of Section 3.4, which computes neighborhoods lazily under a
// memory budget with configurable retention policies.
package projection

import (
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

// Projected is the fully materialized projected graph.
type Projected struct {
	adj       [][]Neighbor
	numWedges int64
	// degPrefix[i] is the cumulative number of adjacency entries of edges
	// < i; used for uniform hyperwedge sampling.
	degPrefix []int64
}

// Build materializes the projected graph of g (Algorithm 1). Time is
// O(Σ_{∧ij} |e_i ∩ e_j|) as in Lemma 1; space is O(|E| + |∧|).
func Build(g *hypergraph.Hypergraph) *Projected {
	n := g.NumEdges()
	p := &Projected{adj: make([][]Neighbor, n)}
	counts := make(map[int32]int32)
	for i := 0; i < n; i++ {
		clear(counts)
		for _, v := range g.Edge(i) {
			for _, j := range g.IncidentEdges(v) {
				if int(j) > i {
					counts[j]++
				}
			}
		}
		for j, w := range counts {
			p.adj[i] = append(p.adj[i], Neighbor{Edge: j, Overlap: w})
			p.adj[j] = append(p.adj[j], Neighbor{Edge: int32(i), Overlap: w})
			p.numWedges++
		}
	}
	total := int64(0)
	p.degPrefix = make([]int64, n+1)
	for i := 0; i < n; i++ {
		sortNeighbors(p.adj[i])
		total += int64(len(p.adj[i]))
		p.degPrefix[i+1] = total
	}
	return p
}

// NumEdges returns the number of hyperedges.
func (p *Projected) NumEdges() int { return len(p.adj) }

// Neighbors returns the sorted neighborhood of hyperedge e.
func (p *Projected) Neighbors(e int32) []Neighbor { return p.adj[e] }

// Degree returns |N_{e}|, the degree of hyperedge e in G¯.
func (p *Projected) Degree(e int32) int { return len(p.adj[e]) }

// Overlap returns ω(∧ij), or 0 if not adjacent. It binary-searches the
// smaller of the two neighborhoods, so a probe between a projected-graph hub
// and a hyperedge with a handful of neighbors costs the small side's log.
func (p *Projected) Overlap(i, j int32) int32 {
	ni, nj := p.adj[i], p.adj[j]
	if len(nj) < len(ni) {
		return lookupOverlap(nj, i)
	}
	return lookupOverlap(ni, j)
}

// OverlapOriented is Overlap, which already probes the cheaper side.
func (p *Projected) OverlapOriented(i, j int32) int32 { return p.Overlap(i, j) }

// NumWedges returns |∧|.
func (p *Projected) NumWedges() int64 { return p.numWedges }

// WedgeAt maps a rank in [0, 2|∧|) to a hyperwedge: each wedge owns exactly
// two adjacency entries, so a uniform rank yields a uniform wedge.
func (p *Projected) WedgeAt(rank int64) (i, j int32) {
	e := sort.Search(len(p.degPrefix)-1, func(e int) bool {
		return p.degPrefix[e+1] > rank
	})
	nb := p.adj[e][rank-p.degPrefix[e]]
	return int32(e), nb.Edge
}

// MaxDegree returns the maximum degree in G¯.
func (p *Projected) MaxDegree() int {
	m := 0
	for _, a := range p.adj {
		if len(a) > m {
			m = len(a)
		}
	}
	return m
}

// sortNeighbors orders a neighborhood by edge ID ascending.
func sortNeighbors(ns []Neighbor) {
	sort.Slice(ns, func(a, b int) bool { return ns[a].Edge < ns[b].Edge })
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
	sortNeighbors(out)
	return out
}

// CountWedges counts |∧| with O(max |N_e|) extra memory and no materialized
// adjacency, by streaming per-edge neighbor sets. This is the cheap pass the
// on-the-fly projector uses to size its wedge sampler.
func CountWedges(g *hypergraph.Hypergraph) int64 {
	var wedges int64
	seen := make(map[int32]struct{})
	for i := 0; i < g.NumEdges(); i++ {
		clear(seen)
		for _, v := range g.Edge(i) {
			for _, j := range g.IncidentEdges(v) {
				if int(j) > i {
					seen[j] = struct{}{}
				}
			}
		}
		wedges += int64(len(seen))
	}
	return wedges
}
