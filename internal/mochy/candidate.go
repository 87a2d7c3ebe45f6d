package mochy

import (
	"sort"
	"sync"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
)

// CountForNodeSet counts, for each h-motif, the instances formed by the
// candidate hyperedge `nodes` together with two hyperedges of g. The
// candidate itself need not be an edge of g: its neighborhood is built from
// the incidence lists, and MoCHy-A's per-sample walker (countContaining)
// counts the instances through it. Hyperedges of g set-equal to the
// candidate form no valid instance with it, so features of an existing edge
// match the features its removal-and-reinsertion would produce. This powers
// the HM26 hyperedge features of the Table 4 prediction study, where test
// candidates are future (absent) hyperedges.
func CountForNodeSet(g *hypergraph.Hypergraph, p projection.Projector, nodes []int32) Counts {
	cand := normalizeNodes(nodes)
	ns := projection.ComputeNeighborhood(g, cand, -1, make(map[int32]int32))
	var out Counts
	countContaining(g, p, cand, -1, ns, &out, &nbrBuffers{})
	return out
}

// CountContaining returns, for each h-motif, the raw number of instances
// that contain hyperedge e, counted by MoCHy-A's walker over the node sets
// g and the projected graph p. A live graph's counter (package dynamic)
// adds it when e is inserted and subtracts it before e is deleted.
func CountContaining(g EdgeSets, p projection.Projector, e int32) Counts {
	buf := containingBufs.Get().(*nbrBuffers)
	defer containingBufs.Put(buf)
	var out Counts
	buf.ni = append(buf.ni[:0], p.Neighbors(e)...)
	countContaining(g, p, g.Edge(int(e)), e, buf.ni, &out, buf)
	return out
}

// containingBufs recycles CountContaining's neighborhood copies and
// classifier, so counting a live graph's mutations allocates nothing after
// warm-up.
var containingBufs = sync.Pool{New: func() any { return new(nbrBuffers) }}

// normalizeNodes sorts and deduplicates a node list without mutating the
// input.
func normalizeNodes(nodes []int32) []int32 {
	cp := append([]int32(nil), nodes...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return out
}
