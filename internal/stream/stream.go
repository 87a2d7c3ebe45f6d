// Package stream estimates h-motif counts over a hyperedge stream with a
// fixed memory budget, adapting reservoir-based triangle counting
// (Trièst [22], cited in the paper's related work) from edges and triangles
// to hyperedges and h-motif instances.
//
// The estimator holds a uniform reservoir of at most M hyperedges in a
// dynamic counter. When the t-th hyperedge e arrives, it is inserted there,
// so every h-motif instance formed by e and two reservoir hyperedges is
// found by MoCHy-A's walker over e's projected neighborhood, and the
// matching estimate is incremented by the reciprocal of the probability
// that both earlier hyperedges are still in the reservoir:
//
//	1                     if t-1 <= M
//	(t-1)(t-2) / (M(M-1)) otherwise
//
// Every instance is examined exactly once — at the arrival of its last
// hyperedge — so by linearity of expectation every per-motif estimate is
// unbiased for the instance count of the stream seen so far. With M at
// least the stream length the estimates are exact.
package stream

import (
	"errors"
	"fmt"
	"math/rand"

	"mochy/internal/dynamic"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
)

// Errors returned by the estimator.
var (
	ErrBadCapacity = errors.New("stream: reservoir capacity must be at least 2")
)

// Estimator ingests a stream of hyperedges and maintains unbiased estimates
// of the cumulative h-motif instance counts. Not safe for concurrent use.
type Estimator struct {
	capacity int
	seed     int64
	rng      *rand.Rand
	counter  *dynamic.Counter
	live     []int32             // reservoir edge ids, for uniform eviction
	seen     map[uint64]struct{} // hashes of every distinct edge ingested
	edges    int64               // distinct hyperedges ingested
	est      [motif.Count + 1]float64
}

// NewEstimator returns an estimator with the given reservoir capacity
// (hyperedges kept in memory). The seed drives reservoir sampling.
func NewEstimator(capacity int, seed int64) (*Estimator, error) {
	if capacity < 2 {
		return nil, ErrBadCapacity
	}
	return &Estimator{
		capacity: capacity,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		counter:  dynamic.New(),
		seen:     make(map[uint64]struct{}),
	}, nil
}

// LimitNodes caps the node universe of ingested hyperedges at n nodes,
// mirroring dynamic.Counter.LimitNodes: an Ingest naming a node id >= n
// fails. Use it when the stream comes from untrusted clients; n <= 0 means
// unlimited. It returns the estimator for chaining.
func (s *Estimator) LimitNodes(n int) *Estimator {
	s.counter.LimitNodes(n)
	return s
}

// Capacity returns the reservoir capacity the estimator was built with.
func (s *Estimator) Capacity() int { return s.capacity }

// EdgesSeen returns the number of distinct hyperedges ingested so far.
func (s *Estimator) EdgesSeen() int64 { return s.edges }

// ReservoirSize returns the number of hyperedges currently held.
func (s *Estimator) ReservoirSize() int { return len(s.live) }

// Estimates returns the current unbiased estimates of the cumulative
// h-motif instance counts of the ingested stream.
func (s *Estimator) Estimates() counting.Counts {
	var out counting.Counts
	for t := 1; t <= motif.Count; t++ {
		out.Set(t, s.est[t])
	}
	return out
}

// Ingest processes the next hyperedge of the stream. Hyperedges whose node
// set was seen before are ignored (the paper's dataset preparation removes
// duplicates); distinctness is tracked by a 64-bit hash of the node set, so
// with astronomically small probability a fresh hyperedge can be mistaken
// for a duplicate.
func (s *Estimator) Ingest(nodes []int32) error {
	h, err := hypergraph.HashNodeSet(nodes)
	if err != nil {
		return err
	}
	if _, dup := s.seen[h]; dup {
		return nil
	}

	// Count the instances completed by this arrival: insert the edge and
	// read off the per-motif delta, weighted by the inverse co-survival
	// probability of the two reservoir partners.
	before := s.counter.Counts()
	id, err := s.counter.Insert(nodes)
	if err != nil {
		return err
	}
	s.seen[h] = struct{}{}
	s.edges++
	after := s.counter.Counts()

	weight := 1.0
	past := float64(s.edges - 1) // hyperedges preceding this arrival
	m := float64(s.capacity)
	if past > m {
		weight = past * (past - 1) / (m * (m - 1))
	}
	for t := 1; t <= motif.Count; t++ {
		if d := after.Get(t) - before.Get(t); d != 0 {
			s.est[t] += weight * d
		}
	}

	// Standard reservoir maintenance.
	if len(s.live) < s.capacity {
		s.live = append(s.live, id)
		return nil
	}
	if s.rng.Float64() < m/float64(s.edges) {
		victim := s.rng.Intn(len(s.live))
		if err := s.counter.Delete(s.live[victim]); err != nil {
			return err
		}
		s.live[victim] = id
		return nil
	}
	return s.counter.Delete(id)
}

// IngestHypergraph streams every hyperedge of g in edge-index order.
func (s *Estimator) IngestHypergraph(g *hypergraph.Hypergraph) error {
	for e := 0; e < g.NumEdges(); e++ {
		if err := s.Ingest(g.Edge(e)); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is an exported Estimator state for persistence: the reservoir's
// node sets, the duplicate-filter hashes, and the running estimates. It is
// sufficient to rebuild an estimator whose estimates and reservoir equal the
// exported ones; only the random eviction sequence restarts (re-seeded from
// Seed and EdgesSeen), so a restored estimator remains a valid uniform
// reservoir process but will not make bit-identical eviction choices to the
// original after the export point.
type Snapshot struct {
	Capacity  int
	Seed      int64
	EdgesSeen int64
	Reservoir [][]int32
	Seen      []uint64
	Estimates [motif.Count]float64
}

// Export captures the estimator's state. The reservoir node sets are copies.
func (s *Estimator) Export() Snapshot {
	snap := Snapshot{
		Capacity:  s.capacity,
		Seed:      s.seed,
		EdgesSeen: s.edges,
		Reservoir: make([][]int32, len(s.live)),
		Seen:      make([]uint64, 0, len(s.seen)),
	}
	for i, id := range s.live {
		snap.Reservoir[i] = append([]int32(nil), s.counter.Edge(id)...)
	}
	for h := range s.seen {
		snap.Seen = append(snap.Seen, h)
	}
	for t := 1; t <= motif.Count; t++ {
		snap.Estimates[t-1] = s.est[t]
	}
	return snap
}

// FromSnapshot rebuilds an estimator from an exported snapshot. nodeLimit
// caps the node universe like LimitNodes (<= 0 unlimited). The reservoir is
// re-inserted into a fresh counter (bounded by the capacity, so this is
// cheap), the duplicate filter and estimates are restored verbatim, and the
// eviction RNG is re-seeded deterministically from Seed and EdgesSeen.
func FromSnapshot(snap Snapshot, nodeLimit int) (*Estimator, error) {
	if snap.Capacity < 2 {
		return nil, ErrBadCapacity
	}
	if len(snap.Reservoir) > snap.Capacity {
		return nil, fmt.Errorf("stream: snapshot reservoir of %d exceeds capacity %d", len(snap.Reservoir), snap.Capacity)
	}
	est := &Estimator{
		capacity: snap.Capacity,
		seed:     snap.Seed,
		rng:      rand.New(rand.NewSource(snap.Seed ^ int64(uint64(snap.EdgesSeen)*0x9E3779B97F4A7C15))),
		counter:  dynamic.New().LimitNodes(nodeLimit),
		seen:     make(map[uint64]struct{}, len(snap.Seen)),
		edges:    snap.EdgesSeen,
	}
	for _, nodes := range snap.Reservoir {
		id, err := est.counter.Insert(nodes)
		if err != nil {
			return nil, fmt.Errorf("stream: restore reservoir edge: %w", err)
		}
		est.live = append(est.live, id)
	}
	for _, h := range snap.Seen {
		est.seen[h] = struct{}{}
	}
	for t := 1; t <= motif.Count; t++ {
		est.est[t] = snap.Estimates[t-1]
	}
	return est, nil
}
