package mochy

// Kernel benchmarks behind BENCH_kernel.json: CountExact (and beside it the
// Algorithm-2 CountPairs) and PerEdgeCounts at explicit worker counts on a
// uniform-membership and a power-law (skewed) hypergraph. Run with
// -cpu 1,2,4,8 so each -cpu point sets GOMAXPROCS and the exact kernel uses
// one worker per scheduler thread:
//
//	go test -run '^$' -bench 'CountExactParallel|PerEdgeCountsParallel' \
//	    -benchtime 2s -cpu 1,2,4,8 ./internal/mochy
//
// The skewed graph concentrates node membership zipf-style, so a handful of
// hub hyperedges own most of the projected graph's adjacency — the shape
// that collapses static stride partitioning and that the chunk-cursor
// scheduler exists for.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
)

// benchUniform builds a hypergraph whose nodes are picked uniformly, so
// projected degrees are tightly concentrated.
func benchUniform(edges int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(1))
	nodes := edges / 4
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges; i++ {
		sz := 3 + rng.Intn(4)
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

// benchSkewed builds a degree-skewed hypergraph: the same uniform base plus
// a few giant "hub" hyperedges that overlap a large share of the graph, so a
// handful of anchors own an outsized fraction of the quadratic pair work
// (4096 edges with 4 hubs of 192 nodes puts ~40% of all pair work in 4 of
// 4096 anchors). hubs scales with size so smaller graphs keep the shape.
func benchSkewed(edges int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewSource(2))
	nodes := edges / 4
	hubs, hubSize := 4, nodes/5
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges-hubs; i++ {
		sz := 3 + rng.Intn(4)
		e := make([]int32, sz)
		for j := range e {
			e[j] = int32(rng.Intn(nodes))
		}
		b.AddEdge(e)
	}
	for i := 0; i < hubs; i++ {
		e := make([]int32, hubSize)
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

// benchShapes names the two degree profiles the kernel benches cover.
func benchShapes(edges int) []struct {
	name string
	g    *hypergraph.Hypergraph
} {
	return []struct {
		name string
		g    *hypergraph.Hypergraph
	}{
		{"uniform", benchUniform(edges)},
		{"skewed", benchSkewed(edges)},
	}
}

// BenchmarkCountExactParallel measures one full MoCHy-E count with one
// worker per GOMAXPROCS thread (vary via -cpu 1,2,4,8): the default
// CountExactOpts, which runs the oriented counter on a materialized
// projection, and beside it, as "<shape>/pairs", the Algorithm-2 pair loop
// of CountPairs.
func BenchmarkCountExactParallel(b *testing.B) {
	for _, shape := range benchShapes(4096) {
		p := projection.Build(shape.g)
		for _, v := range []struct {
			name  string
			count func(context.Context, *hypergraph.Hypergraph, projection.Projector, Options) (Counts, KernelStats, error)
		}{
			{shape.name, CountExactOpts},
			{shape.name + "/pairs", CountPairs},
		} {
			b.Run(v.name, func(b *testing.B) {
				opts := Options{Workers: runtime.GOMAXPROCS(0)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := v.count(context.Background(), shape.g, p, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPerEdgeCountsParallel measures the HM26 per-edge counting path at
// explicit worker counts, on the skewed graph where write contention on the
// shared count rows is worst.
func BenchmarkPerEdgeCountsParallel(b *testing.B) {
	g := benchSkewed(2048)
	p := projection.Build(g)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := PerEdgeCounts(context.Background(), g, p, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
