package testutil

import (
	"math/rand"

	"mochy/internal/hypergraph"
)

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
