package testutil

import (
	"math/rand"

	"mochy/internal/hypergraph"
)

// Family is one shape of seeded random hypergraph that the counting oracles
// draw from.
type Family struct {
	Name  string
	Build func(rng *rand.Rand) *hypergraph.Hypergraph
}

// Families are the counting oracles' graph shapes, each built from a seeded
// RNG:
//   - uniform node picks;
//   - zipf-skewed picks, which grow hub hyperedges so that cost-aware
//     chunks, degree orientation and the merge walk all engage;
//   - repeated and nested hyperedges kept by KeepDuplicates, where
//     e_j ⊆ e_i and e_j = e_i decide the subset bit of the open tallies;
//   - singleton edges over a few nodes, whose neighbourhoods are cliques;
//   - one anchor wider than 64 nodes whose triangles share nodes past its
//     first mask word (see WideAnchorHypergraph).
var Families = []Family{
	{"uniform", func(rng *rand.Rand) *hypergraph.Hypergraph {
		return RandomHypergraph(rng, 15+rng.Intn(15), 20+rng.Intn(20), 6)
	}},
	{"skewed", func(rng *rand.Rand) *hypergraph.Hypergraph {
		return SkewedHypergraph(rng, 30+rng.Intn(30), 40+rng.Intn(40))
	}},
	{"duplicates", DuplicateHypergraph},
	{"singletons", SingletonHypergraph},
	{"wide", WideAnchorHypergraph},
}

// RandomHypergraph draws edges of 1 to maxSize uniform node picks.
func RandomHypergraph(rng *rand.Rand, nodes, edges, maxSize int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges; i++ {
		sz := 1 + rng.Intn(maxSize)
		e := make([]int32, sz)
		for j := range e {
			e[j] = int32(rng.Intn(nodes))
		}
		b.AddEdge(e)
	}
	return mustBuild(b)
}

// SkewedHypergraph builds a power-law-ish hypergraph: node picks follow a
// Zipf distribution, so a few nodes sit in many hyperedges and the projected
// graph grows hub hyperedges with quadratic anchor work — the degree profile
// that breaks static work partitioning.
func SkewedHypergraph(rng *rand.Rand, nodes, edges int) *hypergraph.Hypergraph {
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nodes-1))
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges; i++ {
		sz := 2 + rng.Intn(5)
		e := make([]int32, sz)
		for j := range e {
			e[j] = int32(zipf.Uint64())
		}
		b.AddEdge(e)
	}
	return mustBuild(b)
}

// WideAnchorHypergraph builds one hyperedge of 65–184 nodes, edge 0, and 40
// small edges of 2 nodes each from a 5-node pool, which overlap one another
// so densely that they outrank the wide edge in (degree, id) order. Eight of
// them also hold 1–2 of the wide edge's nodes at positions 60 and up, so the
// oriented counter lists their triangles from the wide edge, with triple
// intersections in mask words past the first.
func WideAnchorHypergraph(rng *rand.Rand) *hypergraph.Hypergraph {
	const pool = 5
	size := 65 + rng.Intn(120)
	b := hypergraph.NewBuilder(pool + size)
	wide := make([]int32, size)
	for i := range wide {
		wide[i] = int32(pool + i)
	}
	b.AddEdge(wide)
	for i := 0; i < 40; i++ {
		a := rng.Intn(pool)
		e := []int32{int32(a), int32((a + 1 + rng.Intn(pool-1)) % pool)}
		if i < 8 {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				e = append(e, wide[60+rng.Intn(size-60)])
			}
		}
		b.AddEdge(e)
	}
	return mustBuild(b)
}

// DuplicateHypergraph draws edges of which about a quarter repeat an earlier
// edge verbatim and another quarter are non-empty subsets of one.
func DuplicateHypergraph(rng *rand.Rand) *hypergraph.Hypergraph {
	nodes := 12 + rng.Intn(12)
	b := hypergraph.NewBuilder(nodes).KeepDuplicates()
	var drawn [][]int32
	for i, n := 0, 25+rng.Intn(20); i < n; i++ {
		var e []int32
		switch r := rng.Intn(4); {
		case r == 0 && len(drawn) > 0:
			e = drawn[rng.Intn(len(drawn))]
		case r == 1 && len(drawn) > 0:
			src := drawn[rng.Intn(len(drawn))]
			for _, v := range src {
				if rng.Intn(2) == 0 {
					e = append(e, v)
				}
			}
			if len(e) == 0 {
				e = src[:1]
			}
		default:
			e = make([]int32, 1+rng.Intn(5))
			for j := range e {
				e[j] = int32(rng.Intn(nodes))
			}
		}
		drawn = append(drawn, e)
		b.AddEdge(e)
	}
	return mustBuild(b)
}

// SingletonHypergraph mixes single-node edges with edges of 2–4 nodes over
// a small node set.
func SingletonHypergraph(rng *rand.Rand) *hypergraph.Hypergraph {
	nodes := 8 + rng.Intn(8)
	b := hypergraph.NewBuilder(nodes)
	for i, n := 0, 25+rng.Intn(15); i < n; i++ {
		size := 1
		if rng.Intn(2) == 0 {
			size = 2 + rng.Intn(3)
		}
		e := make([]int32, size)
		for j := range e {
			e[j] = int32(rng.Intn(nodes))
		}
		b.AddEdge(e)
	}
	return mustBuild(b)
}

func mustBuild(b *hypergraph.Builder) *hypergraph.Hypergraph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
