package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/testutil"
)

// TestCounterOracle puts the counter under the counting oracle of package
// mochy: on every graph family of testutil.Families, at the seeds
// TestCountOracle uses, a seeded script inserts every edge in random order,
// deletes half of the live ones and re-inserts a quarter of those. After
// each phase the counts must equal brute-force Classify over every triple of
// the live edge set, and NumWedges the number of live pairs that share a
// node.
//
//	go test -count=20 -run Oracle ./internal/dynamic
func TestCounterOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, fam := range testutil.Families {
			g := fam.Build(rand.New(rand.NewSource(seed)))
			s := oracleScript{t: t, g: g, c: New(), live: make(map[int]int32)}
			rng := rand.New(rand.NewSource(seed))

			for _, e := range rng.Perm(g.NumEdges()) {
				s.insert(e)
			}
			s.check(fmt.Sprintf("%s seed %d, all inserted", fam.Name, seed))

			live := s.liveEdges()
			rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
			deleted := live[:len(live)/2]
			for _, e := range deleted {
				if err := s.c.Delete(s.live[e]); err != nil {
					t.Fatalf("%s seed %d: Delete(edge %d): %v", fam.Name, seed, e, err)
				}
				delete(s.live, e)
			}
			s.check(fmt.Sprintf("%s seed %d, half deleted", fam.Name, seed))

			rng.Shuffle(len(deleted), func(a, b int) { deleted[a], deleted[b] = deleted[b], deleted[a] })
			for _, e := range deleted[:len(deleted)/4] {
				s.insert(e)
			}
			s.check(fmt.Sprintf("%s seed %d, a quarter re-inserted", fam.Name, seed))
		}
	}
}

// oracleScript drives one counter with the edges of g and keeps its own
// record of which of them are live.
type oracleScript struct {
	t    *testing.T
	g    *hypergraph.Hypergraph
	c    *Counter
	live map[int]int32 // edge of g -> its id in the counter
}

// insert inserts edge e of g, which must fail with ErrDuplicateEdge exactly
// when a live edge has the same node set.
func (s *oracleScript) insert(e int) {
	s.t.Helper()
	dup := false
	for f := range s.live {
		dup = dup || slices.Equal(s.g.Edge(f), s.g.Edge(e))
	}
	id, err := s.c.Insert(s.g.Edge(e))
	switch {
	case dup && err != ErrDuplicateEdge:
		s.t.Fatalf("Insert(edge %d), a duplicate of a live edge: %v, want ErrDuplicateEdge", e, err)
	case !dup && err != nil:
		s.t.Fatalf("Insert(edge %d): %v", e, err)
	case !dup:
		s.live[e] = id
	}
}

// liveEdges returns the live edges of g in ascending order.
func (s *oracleScript) liveEdges() []int {
	edges := make([]int, 0, len(s.live))
	for e := range s.live {
		edges = append(edges, e)
	}
	sort.Ints(edges)
	return edges
}

// check compares the counter with brute force over the live edge set.
func (s *oracleScript) check(label string) {
	s.t.Helper()
	var sets [][]int32
	for _, e := range s.liveEdges() {
		sets = append(sets, s.g.Edge(e))
	}
	h := hypergraph.FromEdges(s.g.NumNodes(), sets)
	var want counting.Counts
	var wedges int64
	n := int32(h.NumEdges())
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if h.IntersectionSize(int(i), int(j)) > 0 {
				wedges++
			}
			for k := j + 1; k < n; k++ {
				if id := counting.Classify(h, i, j, k); id != 0 {
					want[id-1]++
				}
			}
		}
	}
	if got := s.c.NumEdges(); got != len(sets) {
		s.t.Fatalf("%s: %d live edges, want %d", label, got, len(sets))
	}
	if got := s.c.Counts(); got != want {
		s.t.Fatalf("%s: counts %v, brute force %v", label, got.String(), want.String())
	}
	if got := s.c.NumWedges(); got != wedges {
		s.t.Fatalf("%s: %d wedges, brute force %d", label, got, wedges)
	}
}
