package dynamic

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// recount rebuilds a static hypergraph from the counter's live edges and
// runs MoCHy-E on it: the ground truth every test compares against.
func recount(t *testing.T, c *Counter) counting.Counts {
	t.Helper()
	ids := c.IDs()
	if len(ids) == 0 {
		return counting.Counts{}
	}
	var maxNode int32 = -1
	edges := make([][]int32, 0, len(ids))
	for _, id := range ids {
		e := c.Edge(id)
		edges = append(edges, e)
		if last := e[len(e)-1]; last > maxNode {
			maxNode = last
		}
	}
	g := hypergraph.FromEdges(int(maxNode)+1, edges)
	return counting.CountExact(g, projection.Build(g), 1)
}

func assertCountsEqual(t *testing.T, got, want counting.Counts, context string) {
	t.Helper()
	for id := 1; id <= motif.Count; id++ {
		if got.Get(id) != want.Get(id) {
			t.Fatalf("%s: motif %d: dynamic %v, recount %v", context, id, got.Get(id), want.Get(id))
		}
	}
}

func TestEmptyCounter(t *testing.T) {
	c := New()
	if c.NumEdges() != 0 || c.NumWedges() != 0 {
		t.Fatalf("fresh counter not empty: %d edges, %d wedges", c.NumEdges(), c.NumWedges())
	}
	if got := c.Counts(); got.Total() != 0 {
		t.Fatalf("fresh counter has instances: %v", got)
	}
}

func TestInsertErrors(t *testing.T) {
	c := New()
	if _, err := c.Insert(nil); err != ErrEmptyEdge {
		t.Fatalf("empty edge: got %v, want ErrEmptyEdge", err)
	}
	if _, err := c.Insert([]int32{-1, 2}); err != ErrNegativeNode {
		t.Fatalf("negative node: got %v, want ErrNegativeNode", err)
	}
	if _, err := c.Insert([]int32{3, 1, 2}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Same set in different order and with a repeated node is a duplicate.
	if _, err := c.Insert([]int32{2, 3, 1, 1}); err != ErrDuplicateEdge {
		t.Fatalf("duplicate edge: got %v, want ErrDuplicateEdge", err)
	}
	if err := c.Delete(99); err != ErrNoSuchEdge {
		t.Fatalf("delete missing: got %v, want ErrNoSuchEdge", err)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	c := New()
	id, err := c.Insert([]int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert([]int32{3, 2, 1}); err != nil {
		t.Fatalf("reinsert after delete: %v", err)
	}
}

// TestPaperExample builds the Figure 2(b) hypergraph: e1={L,K,F},
// e2={L,H,K}, e3={B,G,L}, e4={S,R,F}. It contains exactly three h-motif
// instances ({e1,e2,e3}, {e1,e2,e4}, {e1,e3,e4}), matching Figure 2(d).
func TestPaperExample(t *testing.T) {
	// L=0 K=1 F=2 H=3 B=4 G=5 S=6 R=7.
	c := New()
	for _, e := range [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}} {
		if _, err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Counts()
	if total := got.Total(); total != 3 {
		t.Fatalf("paper example: %v instances, want 3", got)
	}
	assertCountsEqual(t, c.Counts(), recount(t, c), "paper example")
	if c.NumWedges() != 4 {
		t.Fatalf("paper example: %d hyperwedges, want 4", c.NumWedges())
	}
}

func TestInsertMatchesExactAcrossDomains(t *testing.T) {
	domains := []generator.Domain{
		generator.Coauthorship, generator.Contact, generator.Email,
		generator.Tags, generator.Threads,
	}
	for _, d := range domains {
		g := generator.Generate(generator.Config{Domain: d, Nodes: 120, Edges: 220, Seed: int64(d) + 7})
		c, ids, err := FromHypergraph(g)
		if err != nil {
			t.Fatalf("domain %v: %v", d, err)
		}
		if len(ids) != g.NumEdges() {
			t.Fatalf("domain %v: %d ids for %d edges", d, len(ids), g.NumEdges())
		}
		want := counting.CountExact(g, projection.Build(g), 1)
		assertCountsEqual(t, c.Counts(), want, "insert-only")
		if got, want := c.NumWedges(), projection.CountWedges(g); got != want {
			t.Fatalf("domain %v: %d wedges, want %d", d, got, want)
		}
	}
}

func TestDeleteAllReturnsToEmpty(t *testing.T) {
	g := generator.Generate(generator.Config{Domain: generator.Email, Nodes: 80, Edges: 150, Seed: 3})
	c, ids, err := FromHypergraph(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumEdges() != 0 || c.NumWedges() != 0 {
		t.Fatalf("after deleting all: %d edges, %d wedges", c.NumEdges(), c.NumWedges())
	}
	for id := 1; id <= motif.Count; id++ {
		if got := c.Count(id); got != 0 {
			t.Fatalf("after deleting all: motif %d count %d", id, got)
		}
	}
}

// TestInterleavedMatchesExact drives a random insert/delete workload and
// checks the running counts against a full MoCHy-E recount at checkpoints.
func TestInterleavedMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var live []int32
		for step := 0; step < 300; step++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				i := rng.Intn(len(live))
				if err := c.Delete(live[i]); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				size := 1 + rng.Intn(5)
				edge := make([]int32, size)
				for i := range edge {
					edge[i] = int32(rng.Intn(30))
				}
				id, err := c.Insert(edge)
				if err == ErrDuplicateEdge {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				live = append(live, id)
			}
			if step%60 == 59 {
				assertCountsEqual(t, c.Counts(), recount(t, c),
					"interleaved checkpoint")
			}
		}
		assertCountsEqual(t, c.Counts(), recount(t, c), "interleaved final")
	}
}

// TestQuickRandomWorkload is a property-based variant: for arbitrary seeds,
// any insert/delete sequence over a small node universe must leave the
// dynamic counts equal to a recount.
func TestQuickRandomWorkload(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var live []int32
		for step := 0; step < 80; step++ {
			if len(live) > 2 && rng.Float64() < 0.4 {
				i := rng.Intn(len(live))
				if c.Delete(live[i]) != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := 1 + rng.Intn(4)
			edge := make([]int32, size)
			for i := range edge {
				edge[i] = int32(rng.Intn(12))
			}
			id, err := c.Insert(edge)
			if err == ErrDuplicateEdge {
				continue
			}
			if err != nil {
				return false
			}
			live = append(live, id)
		}
		got := c.Counts()
		want := recount(t, c)
		for id := 1; id <= motif.Count; id++ {
			if got.Get(id) != want.Get(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteIsInverseOfInsert checks that inserting and immediately deleting
// a hyperedge restores exactly the previous counts, for hyperedges with
// varied overlap structure against a fixed background.
func TestDeleteIsInverseOfInsert(t *testing.T) {
	g := generator.Generate(generator.Config{Domain: generator.Tags, Nodes: 60, Edges: 120, Seed: 5})
	c, _, err := FromHypergraph(g)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Counts()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		size := 1 + rng.Intn(6)
		edge := make([]int32, size)
		for i := range edge {
			edge[i] = int32(rng.Intn(60))
		}
		id, err := c.Insert(edge)
		if err == ErrDuplicateEdge {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
		after := c.Counts()
		for m := 1; m <= motif.Count; m++ {
			if before.Get(m) != after.Get(m) {
				t.Fatalf("trial %d: motif %d changed %v -> %v",
					trial, m, before.Get(m), after.Get(m))
			}
		}
	}
}

// TestEdgeAccessors covers Edge/IDs bookkeeping.
func TestEdgeAccessors(t *testing.T) {
	c := New()
	a, _ := c.Insert([]int32{5, 1, 3})
	b, _ := c.Insert([]int32{2, 4})
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("IDs = %v, want [%d %d]", ids, a, b)
	}
	if got := c.Edge(a); !slices.Equal(got, []int32{1, 3, 5}) {
		t.Fatalf("Edge(a) = %v", got)
	}
	if got := c.Edge(99); got != nil {
		t.Fatalf("Edge(missing) = %v, want nil", got)
	}
	if got := c.Count(0); got != 0 {
		t.Fatalf("Count(0) = %d", got)
	}
	if got := c.Count(27); got != 0 {
		t.Fatalf("Count(27) = %d", got)
	}
}

func TestLimitNodes(t *testing.T) {
	c := New().LimitNodes(100)
	if _, err := c.Insert([]int32{0, 99}); err != nil {
		t.Fatalf("in-limit insert: %v", err)
	}
	_, err := c.Insert([]int32{0, 100})
	if !errors.Is(err, ErrNodeLimit) {
		t.Fatalf("out-of-limit insert: %v, want ErrNodeLimit", err)
	}
	if c.NumEdges() != 1 {
		t.Fatalf("rejected insert changed the edge set: %d edges", c.NumEdges())
	}
	// Rejection happens before any state mutation, so the same edge minus
	// the offending node still inserts cleanly.
	if _, err := c.Insert([]int32{0, 1}); err != nil {
		t.Fatalf("insert after rejection: %v", err)
	}
	// Unlimited counters accept any id.
	if _, err := New().Insert([]int32{0, 2_000_000_000}); err != nil {
		t.Fatalf("unlimited insert: %v", err)
	}
}

// TestInsertStopsAtLastID asserts that edge ids never wrap: rows and
// incidence lists take each new id as their largest, so a wrapped id would
// break their order and, with it, every later count.
func TestInsertStopsAtLastID(t *testing.T) {
	c, err := FromSnapshot(Snapshot{
		IDs:    []int32{math.MaxInt32 - 2},
		Edges:  [][]int32{{0, 1}},
		NextID: math.MaxInt32 - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Insert([]int32{1, 2})
	if err != nil || id != math.MaxInt32-1 {
		t.Fatalf("Insert = %d, %v; want id %d", id, err, math.MaxInt32-1)
	}
	if _, err := c.Insert([]int32{1, 3}); err == nil {
		t.Fatal("Insert after the last id succeeded")
	}
	if err := c.Delete(math.MaxInt32 - 2); err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != 1 || c.NumWedges() != 0 {
		t.Fatalf("after delete: %d edges, %d wedges; want 1, 0", c.NumEdges(), c.NumWedges())
	}
}
