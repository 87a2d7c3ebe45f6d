package projection

import (
	"math/rand"
	"testing"

	"mochy/internal/hypergraph"
)

// paperExample is the hypergraph of Figure 2(b) with 4 hyperwedges:
// ∧12, ∧13, ∧23, ∧14.
func paperExample() *hypergraph.Hypergraph {
	return hypergraph.FromEdges(8, [][]int32{
		{0, 1, 2}, // e1 = {L, K, F}
		{0, 3, 1}, // e2 = {L, H, K}
		{4, 5, 0}, // e3 = {B, G, L}
		{6, 7, 2}, // e4 = {S, R, F}
	})
}

func TestBuildPaperExample(t *testing.T) {
	p := Build(paperExample())
	if p.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", p.NumEdges())
	}
	if p.NumWedges() != 4 {
		t.Fatalf("NumWedges = %d, want 4", p.NumWedges())
	}
	wants := map[[2]int32]int32{
		{0, 1}: 2, // |e1 ∩ e2| = |{L,K}|
		{0, 2}: 1,
		{1, 2}: 1,
		{0, 3}: 1,
		{1, 3}: 0,
		{2, 3}: 0,
	}
	for pair, want := range wants {
		if got := p.Overlap(pair[0], pair[1]); got != want {
			t.Errorf("Overlap(%d,%d) = %d, want %d", pair[0], pair[1], got, want)
		}
		if got := p.Overlap(pair[1], pair[0]); got != want {
			t.Errorf("Overlap(%d,%d) = %d, want %d", pair[1], pair[0], got, want)
		}
	}
	if d := p.Degree(0); d != 3 {
		t.Errorf("Degree(e1) = %d, want 3", d)
	}
	if d := p.Degree(3); d != 1 {
		t.Errorf("Degree(e4) = %d, want 1", d)
	}
}

func TestNeighborsSorted(t *testing.T) {
	p := Build(paperExample())
	for e := int32(0); e < 4; e++ {
		ns := p.Neighbors(e)
		for i := 1; i < len(ns); i++ {
			if ns[i-1].Edge >= ns[i].Edge {
				t.Fatalf("Neighbors(%d) not sorted: %v", e, ns)
			}
		}
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomHypergraph(rng, 40, 60, 6)
	p := Build(g)
	var wedges int64
	for i := 0; i < g.NumEdges(); i++ {
		for j := i + 1; j < g.NumEdges(); j++ {
			w := int32(g.IntersectionSize(i, j))
			if w > 0 {
				wedges++
			}
			if got := p.Overlap(int32(i), int32(j)); got != w {
				t.Fatalf("Overlap(%d,%d) = %d, want %d", i, j, got, w)
			}
			if got := p.Overlap(int32(j), int32(i)); got != w {
				t.Fatalf("Overlap(%d,%d) = %d, want %d", j, i, got, w)
			}
		}
	}
	if p.NumWedges() != wedges {
		t.Fatalf("NumWedges = %d, want %d", p.NumWedges(), wedges)
	}
	if CountWedges(g) != wedges {
		t.Fatalf("CountWedges = %d, want %d", CountWedges(g), wedges)
	}
}

func TestComputeNeighborhoodMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomHypergraph(rng, 30, 50, 5)
	p := Build(g)
	scratch := make(map[int32]int32)
	for e := int32(0); int(e) < g.NumEdges(); e++ {
		got := ComputeNeighborhood(g, g.Edge(int(e)), e, scratch)
		want := p.Neighbors(e)
		if len(got) != len(want) {
			t.Fatalf("edge %d: neighborhood size %d, want %d", e, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("edge %d: neighborhood differs at %d: %v vs %v", e, i, got[i], want[i])
			}
		}
	}
}

func TestNumWedgesIsHalfDegreeSum(t *testing.T) {
	// |∧| equals half the sum of projected-graph degrees, for any input.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomHypergraph(rng, 10+rng.Intn(40), 10+rng.Intn(60), 6)
		p := Build(g)
		sum := 0
		for e := int32(0); int(e) < g.NumEdges(); e++ {
			sum += p.Degree(e)
		}
		if int64(sum) != 2*p.NumWedges() {
			t.Fatalf("seed %d: degree sum %d != 2|∧| = %d", seed, sum, 2*p.NumWedges())
		}
	}
}

func TestWedgeSamplingUniform(t *testing.T) {
	g := paperExample()
	p := Build(g)
	rng := rand.New(rand.NewSource(1))
	const n = 40000
	counts := make(map[[2]int32]int)
	for trial := 0; trial < n; trial++ {
		i, j := p.SampleWedge(rng)
		if i > j {
			i, j = j, i
		}
		if p.Overlap(i, j) == 0 {
			t.Fatalf("sampled non-adjacent pair (%d,%d)", i, j)
		}
		counts[[2]int32{i, j}]++
	}
	if len(counts) != 4 {
		t.Fatalf("sampled %d distinct wedges, want 4", len(counts))
	}
	for pair, c := range counts {
		frac := float64(c) / n
		if frac < 0.22 || frac > 0.28 { // expect 0.25 each
			t.Errorf("wedge %v frequency %.3f, want ≈ 0.25", pair, frac)
		}
	}
}

func TestRejectionSamplerUniform(t *testing.T) {
	g := paperExample()
	s := NewRejectionWedgeSampler(g)
	if !s.HasWedges() {
		t.Fatal("paper example has wedges")
	}
	rng := rand.New(rand.NewSource(2))
	const n = 40000
	counts := make(map[[2]int32]int)
	for trial := 0; trial < n; trial++ {
		i, j := s.SampleWedge(rng)
		if i >= j {
			t.Fatalf("sampler returned unordered pair (%d,%d)", i, j)
		}
		counts[[2]int32{i, j}]++
	}
	if len(counts) != 4 {
		t.Fatalf("sampled %d distinct wedges, want 4", len(counts))
	}
	for pair, c := range counts {
		frac := float64(c) / n
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("wedge %v frequency %.3f, want ≈ 0.25", pair, frac)
		}
	}
	if r := s.AcceptanceRate(); r <= 0 || r > 1 {
		t.Errorf("AcceptanceRate = %f out of range", r)
	}
}

func TestRejectionSamplerAgreesWithProjected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomHypergraph(rng, 25, 35, 5)
	p := Build(g)
	s := NewRejectionWedgeSampler(g)
	if !s.HasWedges() {
		t.Skip("random hypergraph has no wedges")
	}
	// Every sampled wedge must be a real wedge.
	for trial := 0; trial < 2000; trial++ {
		i, j := s.SampleWedge(rng)
		if p.Overlap(i, j) == 0 {
			t.Fatalf("rejection sampler returned non-wedge (%d,%d)", i, j)
		}
	}
}

func TestRejectionSamplerNoWedges(t *testing.T) {
	g := hypergraph.FromEdges(4, [][]int32{{0, 1}, {2, 3}})
	s := NewRejectionWedgeSampler(g)
	if s.HasWedges() {
		t.Fatal("disjoint edges should have no wedges")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SampleWedge without wedges did not panic")
		}
	}()
	s.SampleWedge(rand.New(rand.NewSource(1)))
}

func randomHypergraph(rng *rand.Rand, nodes, edges, maxSize int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges; i++ {
		sz := 1 + rng.Intn(maxSize)
		e := make([]int32, sz)
		for j := range e {
			e[j] = int32(rng.Intn(nodes))
		}
		b.AddEdge(e)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestOverlapOrientedMatchesOverlap pins the cheapest-side probe to the
// symmetric Overlap on both projector implementations: orientation is a pure
// performance choice and must never change the answer.
func TestOverlapOrientedMatchesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomHypergraph(rng, 25, 60, 5)
	p := Build(g)
	m := NewMemoized(g, 1<<16, PolicyDegree)
	n := int32(g.NumEdges())
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			if i == j {
				continue // self-overlap is unspecified: projections exclude self-pairs
			}
			want := p.Overlap(i, j)
			if got := p.OverlapOriented(i, j); got != want {
				t.Fatalf("Projected.OverlapOriented(%d, %d) = %d, want %d", i, j, got, want)
			}
			if got := p.OverlapOriented(j, i); got != want {
				t.Fatalf("Projected.OverlapOriented(%d, %d) = %d, want %d", j, i, got, want)
			}
			if got := m.OverlapOriented(i, j); got != want {
				t.Fatalf("Memoized.OverlapOriented(%d, %d) = %d, want %d", i, j, got, want)
			}
		}
	}
}
