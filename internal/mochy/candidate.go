package mochy

import (
	"sort"

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
	// Neighborhood of the candidate: overlap with every edge of g that
	// shares a node.
	overlaps := make(map[int32]int32)
	for _, v := range cand {
		if int(v) >= g.NumNodes() || v < 0 {
			continue
		}
		for _, e := range g.IncidentEdges(v) {
			overlaps[e]++
		}
	}
	ns := make([]projection.Neighbor, 0, len(overlaps))
	for e, w := range overlaps {
		ns = append(ns, projection.Neighbor{Edge: e, Overlap: w})
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].Edge < ns[b].Edge })
	var out Counts
	countContaining(g, p, cand, -1, ns, &out, &nbrBuffers{})
	return out
}

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
