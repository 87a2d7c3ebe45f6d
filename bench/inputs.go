package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"mochy/internal/dynamic"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
)

// sparseDatasets are the seven Table-2 datasets whose exact counts fit a
// run. The dense tags-* and threads-* datasets take tens of seconds each to
// count exactly on a 2-core machine, so they are left out.
var sparseDatasets = []string{
	"coauth-DBLP", "coauth-geology", "coauth-history",
	"contact-primary", "contact-high",
	"email-Enron", "email-EU",
}

// graphInput is one benchmark input graph with its exact reference counts.
type graphInput struct {
	name   string
	domain string // CP domain label: coauth, contact, email or synthetic
	g      *hypergraph.Hypergraph
	wedges int64           // |∧| of the projected graph
	ref    counting.Counts // exact counts from the reference counter
}

// tableDataset generates a Table-2 dataset with nodes and hyperedges scaled
// by scale (as experiments.Config.Scale does) and relabels it for seed.
//
// The generator seeds stay those of Table 2 for every benchmark seed: with
// offset generator seeds the exact-count cost of email-EU alone varies 2×
// between seeds (424 to 922 ms at half scale on a 2-core AMD EPYC), which
// no regression bound can absorb. A seed other than 1 instead permutes node
// ids and hyperedge order, so each seed is a different input to every layer
// (ids, anchor order, cache keys) while motif counts and work stay those of
// the Table-2 graph.
func tableDataset(name string, scale float64, seed int64) (*graphInput, error) {
	for _, spec := range generator.Datasets() {
		if spec.Name != name {
			continue
		}
		cfg := spec.Config
		if scale > 0 && scale < 1 {
			cfg.Nodes = max(16, int(float64(cfg.Nodes)*scale))
			cfg.Edges = max(8, int(float64(cfg.Edges)*scale))
		}
		g, err := relabel(generator.Generate(cfg), seed)
		if err != nil {
			return nil, fmt.Errorf("relabel %s: %w", name, err)
		}
		return &graphInput{name: name, domain: spec.Domain.String(), g: g}, nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// hubSkewed rebuilds the degree-skewed kernel benchmark graph of
// internal/mochy/kernel_bench_test.go: a uniform base of 3-6-node
// hyperedges plus four hub hyperedges over a fifth of the nodes each, so a
// handful of anchors own a large share of the pair work.
func hubSkewed(edges int, seed int64) (*graphInput, error) {
	rng := rand.New(rand.NewSource(2))
	nodes := edges / 4
	hubs, hubSize := 4, nodes/5
	b := hypergraph.NewBuilder(nodes)
	for i := 0; i < edges-hubs; i++ {
		e := make([]int32, 3+rng.Intn(4))
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
		return nil, fmt.Errorf("build hub-skewed: %w", err)
	}
	if g, err = relabel(g, seed); err != nil {
		return nil, fmt.Errorf("relabel hub-skewed: %w", err)
	}
	return &graphInput{name: "hub-skewed", domain: "synthetic", g: g}, nil
}

// relabel returns an isomorphic copy of g with node ids and hyperedge order
// permuted by seed; seed 1 returns g itself.
func relabel(g *hypergraph.Hypergraph, seed int64) (*hypergraph.Hypergraph, error) {
	if seed == 1 {
		return g, nil
	}
	rng := rand.New(rand.NewSource(seed))
	nodePerm := rng.Perm(g.NumNodes())
	b := hypergraph.NewBuilder(g.NumNodes())
	for _, e := range rng.Perm(g.NumEdges()) {
		src := g.Edge(e)
		dst := make([]int32, len(src))
		for i, v := range src {
			dst[i] = int32(nodePerm[v])
		}
		b.AddEdge(dst)
	}
	return b.Build()
}

// computeReferences fills in every input's wedge count and exact reference
// counts, running independent graphs on up to GOMAXPROCS goroutines. The
// reference comes from the incremental counter of internal/dynamic, fed one
// hyperedge at a time: a different algorithm and data layout from the
// MoCHy-E kernel the daemon runs, so a kernel bug cannot appear on both
// sides of a comparison and cancel out.
func computeReferences(inputs []*graphInput) error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		i, in := i, in
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			d := dynamic.New()
			for e := 0; e < in.g.NumEdges(); e++ {
				if _, err := d.Insert(in.g.Edge(e)); err != nil {
					errs[i] = fmt.Errorf("reference count of %s: %w", in.name, err)
					return
				}
			}
			in.wedges = d.NumWedges()
			in.ref = d.Counts()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mix64 derives a well-spread nonzero value from a seed and a stream of
// indices (splitmix64 finalizer), used for per-round and per-op seeds.
func mix64(seed int64, idx ...int64) int64 {
	x := uint64(seed)
	for _, v := range idx {
		x ^= uint64(v) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	v := int64(x & (1<<62 - 1))
	if v == 0 {
		v = 1
	}
	return v
}
