package projection

import (
	"math/rand"
	"sort"
	"sync/atomic"

	"mochy/internal/hypergraph"
)

// WedgeSampler draws hyperwedges uniformly at random with replacement, as
// required by MoCHy-A+ (Algorithm 5).
type WedgeSampler interface {
	// SampleWedge returns a uniformly random hyperwedge ∧ij with i ≠ j.
	SampleWedge(rng *rand.Rand) (i, j int32)
}

// SampleWedge draws a uniform hyperwedge from the materialized projected
// graph: a uniform rank among the 2|∧| adjacency entries identifies a
// uniform wedge because every wedge owns exactly two entries.
func (p *Projected) SampleWedge(rng *rand.Rand) (i, j int32) {
	rank := rng.Int63n(int64(len(p.nbrs)))
	return p.WedgeAt(rank)
}

// RejectionWedgeSampler samples uniform hyperwedges directly from the
// hypergraph, without a materialized projected graph. It proposes a node v
// with probability proportional to C(|E_v|, 2) and a uniform pair of distinct
// edges from E_v; the proposal probability of wedge ∧ij is then proportional
// to ω(∧ij), so accepting with probability 1/ω(∧ij) yields the uniform
// distribution. This is what makes MoCHy-A+ runnable on top of the memoized
// on-the-fly projector (Section 3.4) with no wedge list in memory.
type RejectionWedgeSampler struct {
	g *hypergraph.Hypergraph
	// prefix[v+1] - prefix[v] = C(degree(v), 2).
	prefix []int64
	total  int64
	// proposals and accepts record rejection-sampling efficiency. They are
	// atomic because parallel samplers share one RejectionWedgeSampler.
	proposals atomic.Int64
	accepts   atomic.Int64
}

// NewRejectionWedgeSampler prepares per-node pair-count prefix sums in
// O(|V|) time and space.
func NewRejectionWedgeSampler(g *hypergraph.Hypergraph) *RejectionWedgeSampler {
	s := &RejectionWedgeSampler{g: g, prefix: make([]int64, g.NumNodes()+1)}
	for v := 0; v < g.NumNodes(); v++ {
		d := int64(g.Degree(int32(v)))
		s.prefix[v+1] = s.prefix[v] + d*(d-1)/2
	}
	s.total = s.prefix[g.NumNodes()]
	return s
}

// HasWedges reports whether the hypergraph has at least one hyperwedge.
func (s *RejectionWedgeSampler) HasWedges() bool { return s.total > 0 }

// SampleWedge returns a uniformly random hyperwedge. It panics if the
// hypergraph has no wedges; check HasWedges first.
func (s *RejectionWedgeSampler) SampleWedge(rng *rand.Rand) (int32, int32) {
	if s.total == 0 {
		panic("projection: SampleWedge on hypergraph without wedges")
	}
	for {
		s.proposals.Add(1)
		r := rng.Int63n(s.total)
		v := sort.Search(s.g.NumNodes(), func(v int) bool { return s.prefix[v+1] > r })
		edges := s.g.IncidentEdges(int32(v))
		a := rng.Intn(len(edges))
		b := rng.Intn(len(edges) - 1)
		if b >= a {
			b++
		}
		i, j := edges[a], edges[b]
		w := s.g.IntersectionSize(int(i), int(j))
		// w >= 1 because both edges contain v.
		if w == 1 || rng.Float64() < 1/float64(w) {
			s.accepts.Add(1)
			if i > j {
				i, j = j, i
			}
			return i, j
		}
	}
}

// AcceptanceRate returns accepts/proposals so far (1 if nothing sampled).
func (s *RejectionWedgeSampler) AcceptanceRate() float64 {
	proposals := s.proposals.Load()
	if proposals == 0 {
		return 1
	}
	return float64(s.accepts.Load()) / float64(proposals)
}
