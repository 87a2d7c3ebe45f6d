// Package dynamic maintains exact h-motif instance counts of a hypergraph
// under hyperedge insertions and deletions.
//
// The paper's MoCHy algorithms (Section 3) operate on a static hypergraph;
// its conclusion names temporal hypergraphs as the first future direction.
// This package supplies the algorithmic substrate for that direction: a
// fully-dynamic counter whose state after any update sequence equals what
// MoCHy-E (Algorithm 2) would report on the live hyperedge set.
//
// Every h-motif instance gained or lost by an update contains the updated
// hyperedge e, so the update is MoCHy-A's per-sample work (Algorithm 4,
// lines 4-7): the counter hands a view of itself to the kernel's walker
// (mochy.CountContaining), adds what it returns after inserting e and
// subtracts it before deleting e. An update thus costs the Theorem 3
// per-sample bound, up to binary searches, rather than a full recount.
//
// The projected graph is one row of projection.Neighbor entries per live
// hyperedge and the incidence lists one id slice per node, all sorted by
// id. Ids only grow, so an insertion appends to every row and list it
// joins, and a deletion removes its entries by binary search.
//
// Duplicate hyperedges are rejected, matching the paper's dataset
// preparation ("after removing duplicated hyperedges", Table 2) and keeping
// the counter's semantics identical to MoCHy-E on the live edge set.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// Sentinel errors returned by Counter updates.
var (
	ErrEmptyEdge     = errors.New("dynamic: hyperedge must contain at least one node")
	ErrNegativeNode  = errors.New("dynamic: node ids must be non-negative")
	ErrDuplicateEdge = errors.New("dynamic: hyperedge with identical node set is already live")
	ErrNoSuchEdge    = errors.New("dynamic: no live hyperedge with that id")
	ErrNodeLimit     = errors.New("dynamic: node id exceeds the node-universe limit")
	ErrBadSnapshot   = errors.New("dynamic: invalid counter snapshot")
)

// Counter is a fully-dynamic exact h-motif counter. The zero value is not
// usable; construct with New. A Counter is not safe for concurrent use.
type Counter struct {
	edges    map[int32][]int32               // live edge id -> sorted distinct nodes
	inc      map[int32][]int32               // node -> ascending ids of live edges containing it
	rows     map[int32][]projection.Neighbor // projected graph: live edge id -> N(e) by ascending id
	setIndex map[uint64][]int32              // node-set hash -> live edge ids (duplicate guard)
	counts   [motif.Count + 1]int64          // counts[t] = live instances of h-motif t
	wedges   int64
	nextID   int32
	tally    []int32 // link's scratch: the ids of every incidence entry of the linked edge's nodes
	// maxNodes, when positive, caps the node universe: inserts naming a node
	// id >= maxNodes are rejected, mirroring hypergraph.ParseLimit.
	maxNodes int
}

// New returns an empty dynamic counter.
func New() *Counter {
	return &Counter{
		edges:    make(map[int32][]int32),
		inc:      make(map[int32][]int32),
		rows:     make(map[int32][]projection.Neighbor),
		setIndex: make(map[uint64][]int32),
	}
}

// FromHypergraph bulk-loads every hyperedge of g into a fresh counter and
// returns it together with the assigned edge id for each hyperedge of g,
// indexed by g's edge index.
func FromHypergraph(g *hypergraph.Hypergraph) (*Counter, []int32, error) {
	c := New()
	ids := make([]int32, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		id, err := c.Insert(g.Edge(e))
		if err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", e, err)
		}
		ids[e] = id
	}
	return c, ids, nil
}

// LimitNodes caps the node universe at n nodes: later Inserts naming a node
// id >= n fail with ErrNodeLimit, mirroring hypergraph.ParseLimit. Callers
// applying untrusted mutations should set a limit so a single hyperedge
// naming node 2e9 cannot grow internal state without bound; n <= 0 means
// unlimited. It returns the counter for chaining.
func (c *Counter) LimitNodes(n int) *Counter {
	c.maxNodes = n
	return c
}

// NumEdges returns the number of live hyperedges.
func (c *Counter) NumEdges() int { return len(c.edges) }

// NumWedges returns the number of hyperwedges (adjacent hyperedge pairs)
// among live hyperedges.
func (c *Counter) NumWedges() int64 { return c.wedges }

// Edge returns the sorted node set of a live hyperedge, or nil if the id is
// not live. The returned slice is owned by the counter; do not modify it.
func (c *Counter) Edge(id int32) []int32 { return c.edges[id] }

// IDs returns the ids of all live hyperedges in ascending order.
func (c *Counter) IDs() []int32 {
	ids := make([]int32, 0, len(c.edges))
	for id := range c.edges {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// Counts returns a snapshot of the current exact instance counts, equal to
// what MoCHy-E reports on the live hyperedge set.
func (c *Counter) Counts() counting.Counts {
	var out counting.Counts
	for t := 1; t <= motif.Count; t++ {
		out.Set(t, float64(c.counts[t]))
	}
	return out
}

// Count returns the current number of live instances of h-motif t.
func (c *Counter) Count(t int) int64 {
	if t < 1 || t > motif.Count {
		return 0
	}
	return c.counts[t]
}

// Insert adds a hyperedge (any order, duplicates among nodes ignored) and
// updates the counts with every h-motif instance the new hyperedge creates.
// It returns the id assigned to the hyperedge.
func (c *Counter) Insert(nodes []int32) (int32, error) {
	set, err := canonicalize(nodes)
	if err != nil {
		return 0, err
	}
	if c.maxNodes > 0 && int(set[len(set)-1]) >= c.maxNodes {
		return 0, fmt.Errorf("%w: node id %d with limit %d", ErrNodeLimit, set[len(set)-1], c.maxNodes)
	}
	h := hashSet(set)
	for _, other := range c.setIndex[h] {
		if slices.Equal(c.edges[other], set) {
			return 0, ErrDuplicateEdge
		}
	}
	// Rows and incidence lists take each new id as their largest, so ids
	// must not wrap.
	if c.nextID == math.MaxInt32 {
		return 0, errors.New("dynamic: every edge id has been assigned")
	}
	id := c.nextID
	c.nextID++
	c.link(id, set, h)
	c.count(id, +1)
	return id, nil
}

// Delete removes a live hyperedge by id, updating the counts with every
// h-motif instance the hyperedge participated in.
func (c *Counter) Delete(id int32) error {
	set, ok := c.edges[id]
	if !ok {
		return ErrNoSuchEdge
	}

	// Count the lost instances while the projected graph still includes id.
	c.count(id, -1)

	row := c.rows[id]
	for _, nb := range row {
		nf := c.rows[nb.Edge]
		x, _ := projection.Search(nf, id)
		c.rows[nb.Edge] = slices.Delete(nf, x, x+1)
	}
	c.wedges -= int64(len(row))
	delete(c.rows, id)
	for _, v := range set {
		in := c.inc[v]
		x, _ := slices.BinarySearch(in, id)
		if in = slices.Delete(in, x, x+1); len(in) == 0 {
			delete(c.inc, v)
		} else {
			c.inc[v] = in
		}
	}
	h := hashSet(set)
	bucket := c.setIndex[h]
	for i, other := range bucket {
		if other == id {
			bucket[i] = bucket[len(bucket)-1]
			c.setIndex[h] = bucket[:len(bucket)-1]
			break
		}
	}
	if len(c.setIndex[h]) == 0 {
		delete(c.setIndex, h)
	}
	delete(c.edges, id)
	return nil
}

// link adds the edge id with canonical node set set and hash h to the
// incidence lists, the projected graph and the duplicate index, without
// counting. id is larger than every live id, so it goes last in every row
// and list it joins and each stays sorted. Its own row comes from the
// incidence entries of its nodes, sorted: each id occurs once per shared
// node, so a run's length is the overlap.
func (c *Counter) link(id int32, set []int32, h uint64) {
	tally := c.tally[:0]
	for _, v := range set {
		tally = append(tally, c.inc[v]...)
		c.inc[v] = append(c.inc[v], id)
	}
	slices.Sort(tally)
	var row []projection.Neighbor
	for x := 0; x < len(tally); {
		f, y := tally[x], x+1
		for y < len(tally) && tally[y] == f {
			y++
		}
		w := int32(y - x)
		row = append(row, projection.Neighbor{Edge: f, Overlap: w})
		c.rows[f] = append(c.rows[f], projection.Neighbor{Edge: id, Overlap: w})
		x = y
	}
	c.tally = tally
	c.edges[id] = set
	c.rows[id] = row
	c.wedges += int64(len(row))
	c.setIndex[h] = append(c.setIndex[h], id)
}

// count adds sign times every h-motif instance that contains the live edge
// id, found by MoCHy-A's walker over the counter's projected graph.
func (c *Counter) count(id int32, sign int64) {
	got := counting.CountContaining(view{c}, view{c}, id)
	for t, n := range got {
		c.counts[t+1] += sign * int64(n)
	}
}

// view serves the counter's live edges to the kernel's walker: node sets by
// id (mochy.EdgeSets) and the projected graph (projection.Projector).
type view struct{ *Counter }

// Edge returns the node set of live edge e.
func (v view) Edge(e int) []int32 { return v.edges[int32(e)] }

// Neighbors returns the row of live edge e, which stays valid until the
// next mutation.
func (v view) Neighbors(e int32) []projection.Neighbor { return v.rows[e] }

// Overlap returns ω(∧ij), or 0 if i and j are not adjacent.
func (v view) Overlap(i, j int32) int32 {
	return projection.OverlapOf(v.rows[i], v.rows[j], i, j)
}

// Snapshot is an exported Counter state: the live edge set with its assigned
// ids, the id allocator position, and the raw per-motif instance counts.
// Snapshots exist so a persisted counter can be rebuilt by FromSnapshot
// without re-enumerating h-motif instances — the structural indexes are
// cheap to rederive, the instance enumeration is not.
type Snapshot struct {
	// IDs holds the live edge ids in strictly ascending order.
	IDs []int32
	// Edges holds the canonical (sorted, distinct) node sets, aligned with
	// IDs.
	Edges [][]int32
	// NextID is the id the next insertion will receive.
	NextID int32
	// Counts[t-1] is the live instance count of h-motif t.
	Counts [motif.Count]int64
}

// Export captures the counter's state for persistence. The returned edge
// slices are copies; mutating the counter afterwards does not affect them.
func (c *Counter) Export() Snapshot {
	var s Snapshot
	s.IDs = c.IDs()
	s.Edges = make([][]int32, len(s.IDs))
	for i, id := range s.IDs {
		e := c.edges[id]
		s.Edges[i] = append([]int32(nil), e...)
	}
	s.NextID = c.nextID
	for t := 1; t <= motif.Count; t++ {
		s.Counts[t-1] = c.counts[t]
	}
	return s
}

// FromSnapshot rebuilds a counter from an exported snapshot. The incidence
// lists, projected graph and duplicate index are rederived structurally in
// O(total incidence + overlapping pairs); the motif counts are taken from
// the snapshot as-is, skipping the instance enumeration that dominates a
// from-scratch rebuild. Malformed snapshots (unsorted ids, non-canonical or
// duplicate edges, negative counts) fail with ErrBadSnapshot.
func FromSnapshot(s Snapshot) (*Counter, error) {
	if len(s.IDs) != len(s.Edges) {
		return nil, fmt.Errorf("%w: %d ids for %d edges", ErrBadSnapshot, len(s.IDs), len(s.Edges))
	}
	c := New()
	for i, id := range s.IDs {
		if i > 0 && id <= s.IDs[i-1] {
			return nil, fmt.Errorf("%w: ids not strictly ascending at %d", ErrBadSnapshot, i)
		}
		if id < 0 {
			return nil, fmt.Errorf("%w: negative edge id %d", ErrBadSnapshot, id)
		}
		set := s.Edges[i]
		if len(set) == 0 {
			return nil, fmt.Errorf("%w: edge %d is empty", ErrBadSnapshot, id)
		}
		for j, v := range set {
			if v < 0 || (j > 0 && set[j-1] >= v) {
				return nil, fmt.Errorf("%w: edge %d is not canonical", ErrBadSnapshot, id)
			}
		}
		h := hashSet(set)
		for _, other := range c.setIndex[h] {
			if slices.Equal(c.edges[other], set) {
				return nil, fmt.Errorf("%w: duplicate edge %d", ErrBadSnapshot, id)
			}
		}
		c.link(id, slices.Clone(set), h)
	}
	c.nextID = s.NextID
	if n := len(s.IDs); n > 0 && s.IDs[n-1] >= c.nextID {
		return nil, fmt.Errorf("%w: next id %d not past largest live id %d", ErrBadSnapshot, s.NextID, s.IDs[n-1])
	}
	for t := 1; t <= motif.Count; t++ {
		if s.Counts[t-1] < 0 {
			return nil, fmt.Errorf("%w: negative count for motif %d", ErrBadSnapshot, t)
		}
		c.counts[t] = s.Counts[t-1]
	}
	return c, nil
}

// canonicalize copies, sorts and deduplicates a node list, validating ids.
func canonicalize(nodes []int32) ([]int32, error) {
	if len(nodes) == 0 {
		return nil, ErrEmptyEdge
	}
	set := make([]int32, len(nodes))
	copy(set, nodes)
	sort.Slice(set, func(a, b int) bool { return set[a] < set[b] })
	if set[0] < 0 {
		return nil, ErrNegativeNode
	}
	out := set[:1]
	for _, v := range set[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out, nil
}

// hashSet is FNV-1a over the sorted node set.
func hashSet(set []int32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range set {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime
		}
	}
	return h
}
