package projection

import (
	"container/heap"
	"sync"

	"mochy/internal/hypergraph"
)

// Policy selects which neighborhoods the memoized projector retains when the
// memory budget is exceeded (Section 3.4 of the paper).
type Policy int

const (
	// PolicyDegree retains the neighborhoods of high-degree hyperedges
	// (the paper's recommended prioritization).
	PolicyDegree Policy = iota
	// PolicyLRU retains the most recently used neighborhoods.
	PolicyLRU
	// PolicyRandom evicts a pseudo-random cached neighborhood.
	PolicyRandom
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyDegree:
		return "degree"
	case PolicyLRU:
		return "lru"
	default:
		return "random"
	}
}

// Memoized is an on-the-fly projector: neighborhoods are computed from the
// hypergraph on first use and memoized within a budget of adjacency entries.
// Whether served from cache or recomputed, neighborhoods are always exact,
// so counting algorithms running on top of it lose no accuracy.
//
// Memoized is safe for concurrent use.
type Memoized struct {
	g      *hypergraph.Hypergraph
	budget int64
	policy Policy

	mu      sync.Mutex
	cache   map[int32][]Neighbor
	used    int64
	tick    int64           // logical clock for LRU
	stamp   map[int32]int64 // last-use tick per cached edge
	pq      *retainHeap     // eviction order (min priority first)
	rngSt   uint64          // xorshift state for PolicyRandom
	scratch map[int32]int32 // reused by neighborhood computation
	keys    []int32         // cached keys, for random eviction
	keyPos  map[int32]int   // position of each key in keys

	computes  int64 // total neighborhood computations (cache misses)
	hits      int64 // cache hits
	numWedges int64
}

// NewMemoized creates an on-the-fly projector over g with a budget expressed
// in adjacency entries (2|∧| entries would memoize the entire projected
// graph). A zero or negative budget disables memoization entirely.
func NewMemoized(g *hypergraph.Hypergraph, budget int64, policy Policy) *Memoized {
	return &Memoized{
		g:         g,
		budget:    budget,
		policy:    policy,
		cache:     make(map[int32][]Neighbor),
		stamp:     make(map[int32]int64),
		pq:        &retainHeap{},
		rngSt:     0x9e3779b97f4a7c15,
		scratch:   make(map[int32]int32),
		keyPos:    make(map[int32]int),
		numWedges: CountWedges(g),
	}
}

// NumEdges returns the number of hyperedges.
func (m *Memoized) NumEdges() int { return m.g.NumEdges() }

// NumWedges returns |∧|, counted once at construction with a streaming pass.
func (m *Memoized) NumWedges() int64 { return m.numWedges }

// Computes returns the number of neighborhood computations performed so far
// (cache misses). The ratio of Computes to total requests measures how much
// work memoization saved.
func (m *Memoized) Computes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.computes
}

// Hits returns the number of requests served from the memo.
func (m *Memoized) Hits() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// Neighbors returns the exact neighborhood of hyperedge e, from the memo if
// present and recomputed otherwise.
func (m *Memoized) Neighbors(e int32) []Neighbor {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ns, ok := m.cache[e]; ok {
		m.hits++
		m.touch(e)
		return ns
	}
	m.computes++
	ns := ComputeNeighborhood(m.g, e, m.scratch)
	m.maybeRetain(e, ns)
	return ns
}

// Overlap returns ω(∧ij), or 0 if not adjacent.
func (m *Memoized) Overlap(i, j int32) int32 {
	// Prefer a cached neighborhood of either endpoint before computing.
	m.mu.Lock()
	if ns, ok := m.cache[i]; ok {
		m.hits++
		m.touch(i)
		m.mu.Unlock()
		return lookupOverlap(ns, j)
	}
	if ns, ok := m.cache[j]; ok {
		m.hits++
		m.touch(j)
		m.mu.Unlock()
		return lookupOverlap(ns, i)
	}
	m.mu.Unlock()
	// Direct pairwise intersection: cheaper than projecting a neighborhood.
	return int32(m.g.IntersectionSize(int(i), int(j)))
}

// OverlapOriented is Overlap, which already probes whichever endpoint's
// neighborhood is cached.
func (m *Memoized) OverlapOriented(i, j int32) int32 { return m.Overlap(i, j) }

// touch records a use of cached edge e for the LRU policy.
func (m *Memoized) touch(e int32) {
	if m.policy == PolicyLRU {
		m.tick++
		m.stamp[e] = m.tick
	}
}

// priority returns the retention priority of an edge's neighborhood: entries
// with the smallest priority are evicted first.
func (m *Memoized) priority(e int32, ns []Neighbor) int64 {
	switch m.policy {
	case PolicyDegree:
		return int64(len(ns))
	case PolicyLRU:
		return m.stamp[e]
	default:
		m.rngSt ^= m.rngSt << 13
		m.rngSt ^= m.rngSt >> 7
		m.rngSt ^= m.rngSt << 17
		return int64(m.rngSt >> 1)
	}
}

// maybeRetain memoizes a freshly computed neighborhood if the policy admits
// it within the budget, evicting lower-priority entries as needed.
func (m *Memoized) maybeRetain(e int32, ns []Neighbor) {
	cost := int64(len(ns))
	if cost > m.budget {
		return
	}
	if m.policy == PolicyLRU {
		m.tick++
		m.stamp[e] = m.tick
	}
	prio := m.priority(e, ns)
	for m.used+cost > m.budget {
		victim, vprio, ok := m.peekEvict()
		if !ok {
			return
		}
		// Under the degree policy, never evict a higher-degree entry to
		// admit a lower-degree one.
		if m.policy == PolicyDegree && vprio >= prio {
			return
		}
		m.evict(victim)
	}
	m.insert(e, ns, prio)
}

// insert adds e to all cache bookkeeping structures.
func (m *Memoized) insert(e int32, ns []Neighbor, prio int64) {
	m.cache[e] = ns
	m.used += int64(len(ns))
	heap.Push(m.pq, retained{edge: e, prio: prio})
	m.keyPos[e] = len(m.keys)
	m.keys = append(m.keys, e)
}

// peekEvict returns the next eviction candidate under the active policy.
func (m *Memoized) peekEvict() (int32, int64, bool) {
	switch m.policy {
	case PolicyLRU:
		// The heap's priorities are insertion stamps; stale entries are
		// lazily refreshed against the live stamp table.
		for m.pq.Len() > 0 {
			top := (*m.pq)[0]
			if _, ok := m.cache[top.edge]; !ok {
				heap.Pop(m.pq) // already evicted
				continue
			}
			if live := m.stamp[top.edge]; live != top.prio {
				heap.Pop(m.pq)
				heap.Push(m.pq, retained{edge: top.edge, prio: live})
				continue
			}
			return top.edge, top.prio, true
		}
		return 0, 0, false
	case PolicyRandom:
		if len(m.keys) == 0 {
			return 0, 0, false
		}
		m.rngSt ^= m.rngSt << 13
		m.rngSt ^= m.rngSt >> 7
		m.rngSt ^= m.rngSt << 17
		e := m.keys[m.rngSt%uint64(len(m.keys))]
		return e, 0, true
	default: // PolicyDegree
		for m.pq.Len() > 0 {
			top := (*m.pq)[0]
			if _, ok := m.cache[top.edge]; !ok {
				heap.Pop(m.pq)
				continue
			}
			return top.edge, top.prio, true
		}
		return 0, 0, false
	}
}

// evict removes e from the cache.
func (m *Memoized) evict(e int32) {
	ns, ok := m.cache[e]
	if !ok {
		return
	}
	delete(m.cache, e)
	delete(m.stamp, e)
	m.used -= int64(len(ns))
	if pos, ok := m.keyPos[e]; ok {
		last := len(m.keys) - 1
		m.keys[pos] = m.keys[last]
		m.keyPos[m.keys[pos]] = pos
		m.keys = m.keys[:last]
		delete(m.keyPos, e)
	}
}

// retained is a heap entry: (edge, retention priority).
type retained struct {
	edge int32
	prio int64
}

// retainHeap is a min-heap on priority.
type retainHeap []retained

func (h retainHeap) Len() int            { return len(h) }
func (h retainHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h retainHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *retainHeap) Push(x interface{}) { *h = append(*h, x.(retained)) }
func (h *retainHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
