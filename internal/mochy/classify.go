package mochy

import (
	"mochy/internal/hypergraph"
	"mochy/internal/motif"
)

// Classify returns the h-motif ID of the triple {i, j, k}, computing all
// pairwise overlaps and the triple intersection directly from the
// hypergraph and the seven region cardinalities with
// motif.VennFromCardinalities. Returns 0 for invalid triples (not connected
// or duplicated hyperedges). It is the brute-force reference for callers
// without a projected graph; the counting kernels build patterns with
// patternOf instead, so the reference shares no code with them.
func Classify(g *hypergraph.Hypergraph, i, j, k int32) int {
	a, b, c := int(i), int(j), int(k)
	ab, bc, ca := g.IntersectionSize(a, b), g.IntersectionSize(b, c), g.IntersectionSize(c, a)
	var abc int
	if ab > 0 && bc > 0 && ca > 0 {
		abc = g.TripleIntersectionSize(a, b, c)
	}
	v := motif.VennFromCardinalities(g.EdgeSize(a), g.EdgeSize(b), g.EdgeSize(c), ab, bc, ca, abc)
	return motif.FromPattern(v.Pattern())
}

// pairClass is the classifier of the pair loop and of MoCHy-A's walker
// (countContaining, behind MoCHy-A and CountForNodeSet). It classifies the
// triples {e_i, e_j, e_k} that share the pair {e_i, e_j}: an anchor and one
// neighbour in the pair loop, or a sampled hyperedge or a candidate and one
// neighbour in the walker. Lemma 2's triple intersection of a closed triple
// is |S ∩ e_k| for S = e_i ∩ e_j, so S is computed once per pair, on the
// first closed triple that needs it, and each closed triple then costs ω_ij
// membership probes of e_k. The walker visits only part of a pair's closed
// triples, so probes cost it less than walking S's incidence lists would.
// The oriented counter's triangles take the triple intersection from node
// masks instead (see closeTriangles), and MoCHy-A+ from an incidence walk
// per sampled wedge (see countContainingWedge).
type pairClass struct {
	g          *hypergraph.Hypergraph
	ei         []int32 // e_i's nodes, ascending
	j          int32
	si, sj     int32 // |e_i|, |e_j|
	wij        int32 // ω_ij
	shared     []int32
	haveShared bool
}

// reset points c at the pair {e_i, e_j} with overlap wij, where ei is the
// node set of e_i (an edge of g, or a candidate that is not) and j is an
// edge of g.
func (c *pairClass) reset(g *hypergraph.Hypergraph, ei []int32, j, wij int32) {
	c.g, c.ei, c.j, c.wij = g, ei, j, wij
	c.si, c.sj = int32(len(ei)), int32(g.EdgeSize(int(j)))
	c.haveShared = false
}

// motif returns the motif ID of {e_i, e_j, e_k} given ω_jk and ω_ik, or 0
// for an invalid triple.
func (c *pairClass) motif(k, wjk, wik int32) int {
	var abc int32
	if wjk > 0 && wik > 0 {
		if !c.haveShared {
			c.shared = intersect(c.shared[:0], c.ei, c.g.Edge(int(c.j)))
			c.haveShared = true
		}
		abc = countMembers(c.shared, c.g.Edge(int(k)))
	}
	sk := int32(c.g.EdgeSize(int(k)))
	return motif.FromPattern(patternOf(c.si, c.sj, sk, c.wij, wjk, wik, abc))
}

// patternOf returns the emptiness pattern of the triple {a, b, c} from the
// edge sizes, the pairwise overlaps and the triple overlap: the seven region
// cardinalities follow by inclusion-exclusion, and only their signs matter.
func patternOf(sa, sb, sc, ab, bc, ca, abc int32) motif.Pattern {
	return motif.Pattern(nonEmpty(sa-ab-ca+abc)<<motif.RegionA |
		nonEmpty(sb-ab-bc+abc)<<motif.RegionB |
		nonEmpty(sc-bc-ca+abc)<<motif.RegionC |
		nonEmpty(ab-abc)<<motif.RegionAB |
		nonEmpty(bc-abc)<<motif.RegionBC |
		nonEmpty(ca-abc)<<motif.RegionCA |
		nonEmpty(abc)<<motif.RegionABC)
}

// nonEmpty is 1 for a positive region cardinality and 0 for an empty one,
// without a branch; cardinalities are never negative.
func nonEmpty(x int32) uint8 { return uint8(uint32(-x) >> 31) }

// intersect appends a ∩ b to dst for ascending a and b.
func intersect(dst, a, b []int32) []int32 {
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			dst = append(dst, a[x])
			x++
			y++
		}
	}
	return dst
}

// countMembers returns |s ∩ e| for ascending s and e by binary-searching e
// for each element of s, the small side: a pair's shared nodes.
func countMembers(s, e []int32) int32 {
	var n int32
	for _, v := range s {
		lo, hi := 0, len(e)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if e[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(e) && e[lo] == v {
			n++
		}
		e = e[lo:] // later elements of s lie at or after v
	}
	return n
}
