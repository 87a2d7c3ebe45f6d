package mochy

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
)

// paperExample is the hypergraph of Figure 2(b).
func paperExample() *hypergraph.Hypergraph {
	return hypergraph.FromEdges(8, [][]int32{
		{0, 1, 2}, // e1 = {L, K, F}
		{0, 3, 1}, // e2 = {L, H, K}
		{4, 5, 0}, // e3 = {B, G, L}
		{6, 7, 2}, // e4 = {S, R, F}
	})
}

func TestCountExactPaperExample(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	got := CountExact(g, p, 1)
	if got.Total() != 3 {
		t.Fatalf("total instances = %v, want 3 ({e1,e2,e3}, {e1,e2,e4}, {e1,e3,e4})", got.Total())
	}
	want := bruteForceCounts(g)
	if got != want {
		t.Fatalf("CountExact = %v, want %v", got.String(), want.String())
	}
	// {e1,e2,e4} and {e1,e3,e4} have identical pairwise relations but must
	// be distinguished by h-motifs (Section 2.2 "Why Non-pairwise
	// Relations?"): e2 ⊂ ... shares {L,K} with e1 while e3 shares only {L}.
	m124 := Classify(g, 0, 1, 3)
	m134 := Classify(g, 0, 2, 3)
	if m124 == 0 || m134 == 0 {
		t.Fatal("paper instances must be valid")
	}
	if m124 == m134 {
		t.Fatalf("motifs of {e1,e2,e4} and {e1,e3,e4} must differ, both = %d", m124)
	}
}

func TestCountExactMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomHypergraph(rng, 15+rng.Intn(15), 20+rng.Intn(20), 6)
		p := projection.Build(g)
		got := CountExact(g, p, 1)
		want := bruteForceCounts(g)
		if got != want {
			t.Fatalf("seed %d: CountExact = %v, want %v", seed, got.String(), want.String())
		}
	}
}

func TestCountExactParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomHypergraph(rng, 40, 80, 6)
	p := projection.Build(g)
	serial := CountExact(g, p, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := CountExact(g, p, workers); got != serial {
			t.Fatalf("workers=%d: %v != serial %v", workers, got.String(), serial.String())
		}
	}
}

func TestCountExactOnMemoizedProjector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomHypergraph(rng, 25, 40, 5)
	static := projection.Build(g)
	want := CountExact(g, static, 1)
	for _, budget := range []int64{0, 20, 1 << 20} {
		m := projection.NewMemoized(g, budget, projection.PolicyDegree)
		if got := CountExact(g, m, 1); got != want {
			t.Fatalf("budget %d: memoized counts %v != static %v", budget, got.String(), want.String())
		}
	}
}

func TestEnumerateVisitsEachInstanceOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	seen := make(map[[3]int32]int)
	Enumerate(g, p, func(ins Instance) bool {
		if !(ins.A < ins.B && ins.B < ins.C) {
			t.Fatalf("instance not ordered: %+v", ins)
		}
		seen[[3]int32{ins.A, ins.B, ins.C}]++
		if id := Classify(g, ins.A, ins.B, ins.C); id != ins.Motif {
			t.Fatalf("instance %+v reports motif %d, classify says %d", ins, ins.Motif, id)
		}
		return true
	})
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("instance %v visited %d times", key, n)
		}
	}
	exact := CountExact(g, p, 1)
	if float64(len(seen)) != exact.Total() {
		t.Fatalf("enumerated %d instances, exact total %v", len(seen), exact.Total())
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	calls := 0
	Enumerate(g, p, func(Instance) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop made %d calls, want 1", calls)
	}
}

// perEdge runs PerEdgeCounts to completion at the given worker count.
func perEdge(t *testing.T, g *hypergraph.Hypergraph, p projection.Projector, workers int) ([][]int64, Counts) {
	t.Helper()
	per, total, _, err := PerEdgeCounts(context.Background(), g, p, Options{Workers: workers})
	if err != nil {
		t.Fatalf("PerEdgeCounts workers=%d: %v", workers, err)
	}
	return per, total
}

// referenceEnumerate is MoCHy-EENUM as a plain serial loop with one overlap
// probe per pair, classified by the brute-force Classify: the order every
// workers=1 enumeration must reproduce.
func referenceEnumerate(g *hypergraph.Hypergraph, p projection.Projector) []Instance {
	var out []Instance
	for i := int32(0); int(i) < g.NumEdges(); i++ {
		ns := append([]projection.Neighbor(nil), p.Neighbors(i)...)
		for a := 0; a < len(ns); a++ {
			j := ns[a].Edge
			for b := a + 1; b < len(ns); b++ {
				kk := ns[b].Edge
				wjk := p.Overlap(j, kk)
				if wjk != 0 && (i > j || i > kk) {
					continue
				}
				if id := Classify(g, i, j, kk); id != 0 {
					x, y, z := sort3(i, j, kk)
					out = append(out, Instance{A: x, B: y, C: z, Motif: id})
				}
			}
		}
	}
	return out
}

// TestEnumerateOrderMatchesReference pins the instance sequence: the shared
// anchor loop (with its merge-walk intersection) must yield exactly the
// serial reference order on skewed graphs, where the merge walk engages.
func TestEnumerateOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := skewedRandomHypergraph(rng, 30, 90)
		p := projection.Build(g)
		want := referenceEnumerate(g, p)
		var got []Instance
		Enumerate(g, p, func(ins Instance) bool {
			got = append(got, ins)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d instances, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: instance %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestEnumerateStopsAfterFalse: once fn returns false it is never called
// again, even when the stopping anchor has more instances.
func TestEnumerateStopsAfterFalse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := skewedRandomHypergraph(rng, 30, 90)
	p := projection.Build(g)
	want := referenceEnumerate(g, p)
	if len(want) < 10 {
		t.Fatalf("graph too small: %d instances", len(want))
	}
	for _, stopAt := range []int{1, 5, len(want) / 2} {
		var got []Instance
		Enumerate(g, p, func(ins Instance) bool {
			got = append(got, ins)
			return len(got) < stopAt
		})
		if len(got) != stopAt {
			t.Fatalf("stop at %d: fn called %d times", stopAt, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stop at %d: instance %d = %+v, want %+v", stopAt, i, got[i], want[i])
			}
		}
	}
}

// TestPerEdgeCountsCancellationAndStats: the per-edge path reports the
// cancellation cause and fills KernelStats like CountExactOpts.
func TestPerEdgeCountsCancellationAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := skewedRandomHypergraph(rng, 60, 180)
	p := projection.Build(g)
	per, _, stats, err := PerEdgeCounts(context.Background(), g, p, Options{Workers: 4})
	if err != nil || len(per) != g.NumEdges() {
		t.Fatalf("PerEdgeCounts = %d rows, %v", len(per), err)
	}
	if stats.Workers != 4 || !stats.CostAware || stats.Chunks < 4 || stats.Imbalance < 1 || stats.Enumerate <= 0 {
		t.Fatalf("stats = %+v, want 4 cost-aware workers with chunks and timings", stats)
	}

	cause := errors.New("pipeline closed")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	per, total, stats, err := PerEdgeCounts(ctx, g, p, Options{Workers: 3})
	if !errors.Is(err, cause) {
		t.Fatalf("cancelled PerEdgeCounts error = %v, want cause %v", err, cause)
	}
	if per != nil || total != (Counts{}) || stats.Workers != 3 {
		t.Fatalf("cancelled PerEdgeCounts = %d rows, total %v, stats %+v", len(per), total.String(), stats)
	}
}

func TestPerEdgeCounts(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	per, total := perEdge(t, g, p, 1)
	if total.Total() != 3 {
		t.Fatalf("total = %v, want 3", total.Total())
	}
	// Each instance contributes to exactly 3 edges, so per-edge sums are 3x.
	var perSum int64
	for _, row := range per {
		for _, v := range row {
			perSum += v
		}
	}
	if perSum != 9 {
		t.Fatalf("per-edge sum = %d, want 9", perSum)
	}
	// e1 is in all 3 instances; e4 is in 2.
	rowSum := func(e int) (s int64) {
		for _, v := range per[e] {
			s += v
		}
		return
	}
	if rowSum(0) != 3 {
		t.Errorf("e1 participates in %d instances, want 3", rowSum(0))
	}
	if rowSum(3) != 2 {
		t.Errorf("e4 participates in %d instances, want 2", rowSum(3))
	}
}

func TestPerEdgeCountsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomHypergraph(rng, 30, 60, 5)
	p := projection.Build(g)
	serialPer, serialTotal := perEdge(t, g, p, 1)
	for _, workers := range []int{2, 4} {
		per, total := perEdge(t, g, p, workers)
		if total != serialTotal {
			t.Fatalf("workers=%d: totals %v != %v", workers, total.String(), serialTotal.String())
		}
		for e := range per {
			for tt := range per[e] {
				if per[e][tt] != serialPer[e][tt] {
					t.Fatalf("workers=%d edge %d motif %d: %d != %d",
						workers, e, tt+1, per[e][tt], serialPer[e][tt])
				}
			}
		}
	}
}

func TestCountExactInvariantUnderEdgeRelabeling(t *testing.T) {
	// Motif counts are a property of the hypergraph, not of edge IDs:
	// presenting the same hyperedges in a different order must not change
	// any count (this exercises the i < min(j,k) dedup rule from every
	// anchor position).
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomHypergraph(rng, 20, 30, 5)
		base := CountExact(g, projection.Build(g), 1)

		perm := rng.Perm(g.NumEdges())
		b := hypergraph.NewBuilder(g.NumNodes()).KeepDuplicates()
		for _, e := range perm {
			b.AddEdge(g.Edge(e))
		}
		shuffled, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := CountExact(shuffled, projection.Build(shuffled), 1)
		if got != base {
			t.Fatalf("seed %d: counts changed under relabeling:\n%v\n%v",
				seed, base.String(), got.String())
		}
	}
}

func TestCountExactIgnoresDuplicateEdgeTriples(t *testing.T) {
	// The algorithms assume deduplicated input (as in the paper), but must
	// stay correct if duplicates slip through: triples containing two
	// copies of the same hyperedge have no motif (Figure 4) and classify to
	// 0, so only triples of three distinct sets are counted.
	b := hypergraph.NewBuilder(6).KeepDuplicates()
	b.AddEdge([]int32{0, 1, 2})
	b.AddEdge([]int32{0, 1, 2}) // duplicate
	b.AddEdge([]int32{2, 3})
	b.AddEdge([]int32{3, 4})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := projection.Build(g)
	got := CountExact(g, p, 1)
	want := bruteForceCounts(g)
	if got != want {
		t.Fatalf("with duplicates: %v, brute force %v", got.String(), want.String())
	}
	// The duplicate pair {e0, e1} plus any third edge never classifies.
	if id := Classify(g, 0, 1, 2); id != 0 {
		t.Fatalf("duplicate-containing triple classified as %d", id)
	}
}

func TestCountsHelpers(t *testing.T) {
	var c Counts
	c.Set(2, 10)
	c.Set(22, 30) // open
	if c.Get(2) != 10 {
		t.Fatalf("Get(2) = %v", c.Get(2))
	}
	if c.Total() != 40 {
		t.Fatalf("Total = %v", c.Total())
	}
	if got := c.OpenFraction(); got != 0.75 {
		t.Fatalf("OpenFraction = %v, want 0.75", got)
	}
	f := c.Fractions()
	if f[1] != 0.25 || f[21] != 0.75 {
		t.Fatalf("Fractions = %v", f)
	}
	ranks := c.Ranks()
	if ranks[22] != 1 || ranks[2] != 2 {
		t.Fatalf("Ranks: motif22=%d motif2=%d, want 1, 2", ranks[22], ranks[2])
	}
	// Remaining motifs get distinct ranks 3..26.
	seen := make(map[int]bool)
	for id := 1; id <= motif.Count; id++ {
		if seen[ranks[id]] {
			t.Fatalf("duplicate rank %d", ranks[id])
		}
		seen[ranks[id]] = true
	}
}

func TestRelativeError(t *testing.T) {
	var exact, est Counts
	exact.Set(1, 100)
	exact.Set(2, 100)
	est.Set(1, 110)
	est.Set(2, 90)
	if got := est.RelativeError(&exact); got != 0.1 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	var zero Counts
	if got := zero.RelativeError(&zero); got != 0 {
		t.Fatalf("RelativeError of zero counts = %v, want 0", got)
	}
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
