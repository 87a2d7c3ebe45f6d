package projection

import (
	"math/rand"
	"testing"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	"mochy/internal/testutil"
)

// flatFamilies are the inputs the flat-layout checks build from a seed:
// repeated and nested hyperedges kept by KeepDuplicates, singleton edges, an
// edgeless graph, and a hub node shared by every edge (G¯ is a clique).
var flatFamilies = []struct {
	name  string
	build func(rng *rand.Rand) *hypergraph.Hypergraph
}{
	{"duplicates", testutil.DuplicateHypergraph},
	{"singletons", testutil.SingletonHypergraph},
	{"edgeless", func(*rand.Rand) *hypergraph.Hypergraph { return hypergraph.FromEdges(5, nil) }},
	{"hub", hubHypergraph},
}

// TestFlatLayout checks Build on every family against brute-force
// IntersectionSize: every row is strictly ascending, has no self-entry and
// holds exactly the overlapping hyperedges with their overlaps; the degrees
// sum to 2|∧|; and rank r maps to entry r − Σ_{x<e} Degree(x) of row e.
func TestFlatLayout(t *testing.T) {
	for _, f := range flatFamilies {
		for seed := int64(0); seed < 10; seed++ {
			g := f.build(rand.New(rand.NewSource(seed)))
			p := Build(g)
			if p.NumEdges() != g.NumEdges() {
				t.Fatalf("%s seed %d: NumEdges = %d, want %d", f.name, seed, p.NumEdges(), g.NumEdges())
			}
			var wedges, degSum int64
			for i := 0; i < g.NumEdges(); i++ {
				ns := p.Neighbors(int32(i))
				if p.Degree(int32(i)) != len(ns) {
					t.Fatalf("%s seed %d: Degree(%d) = %d, row has %d entries", f.name, seed, i, p.Degree(int32(i)), len(ns))
				}
				degSum += int64(len(ns))
				at := 0
				for j := 0; j < g.NumEdges(); j++ {
					w := int32(g.IntersectionSize(i, j))
					if j == i || w == 0 {
						continue
					}
					if j > i {
						wedges++
					}
					if at == len(ns) || ns[at] != (Neighbor{Edge: int32(j), Overlap: w}) {
						t.Fatalf("%s seed %d: row %d = %v, want edge %d with overlap %d at %d", f.name, seed, i, ns, j, w, at)
					}
					at++
				}
				if at != len(ns) {
					t.Fatalf("%s seed %d: row %d = %v has %d extra entries", f.name, seed, i, ns, len(ns)-at)
				}
			}
			if p.NumWedges() != wedges || CountWedges(g) != wedges || degSum != 2*wedges {
				t.Fatalf("%s seed %d: NumWedges %d, CountWedges %d, degree sum %d; want |∧| = %d",
					f.name, seed, p.NumWedges(), CountWedges(g), degSum, wedges)
			}
			rank := int64(0)
			for e := int32(0); int(e) < p.NumEdges(); e++ {
				for _, nb := range p.Neighbors(e) {
					if i, j := p.WedgeAt(rank); i != e || j != nb.Edge {
						t.Fatalf("%s seed %d: WedgeAt(%d) = (%d, %d), want (%d, %d)", f.name, seed, rank, i, j, e, nb.Edge)
					}
					rank++
				}
			}
		}
	}
}

// TestBuildAllocs bounds Build's allocations on a 2,000-edge generator
// graph: the flat layout allocates a fixed handful of arrays, none per
// hyperedge.
func TestBuildAllocs(t *testing.T) {
	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 250, Edges: 2000, Seed: 3})
	if allocs := testing.AllocsPerRun(5, func() { Build(g) }); allocs > 32 {
		t.Fatalf("Build made %v allocations, want <= 32", allocs)
	}
}

// hubHypergraph adds node 0 to every edge of 0–4 uniform nodes.
func hubHypergraph(rng *rand.Rand) *hypergraph.Hypergraph {
	nodes := 10 + rng.Intn(20)
	edges := make([][]int32, 20+rng.Intn(20))
	for i := range edges {
		e := []int32{0}
		for j := rng.Intn(5); j > 0; j-- {
			e = append(e, int32(rng.Intn(nodes)))
		}
		edges[i] = e
	}
	return hypergraph.FromEdges(nodes, edges)
}
