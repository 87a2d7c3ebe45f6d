// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 4) on the synthetic benchmark datasets. Each
// experiment exposes a Run function returning a plain result struct and a
// Render method printing rows shaped like the paper's artifact; EXPERIMENTS.md
// records paper-vs-measured numbers from these renderers.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	"mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
)

// Config is shared across experiments.
type Config struct {
	// Scale in (0, 1] shrinks dataset sizes for quick runs; 1 is the full
	// benchmark scale.
	Scale float64
	// Workers is the goroutine count for counting algorithms.
	Workers int
	// NumRandom is the number of randomized hypergraphs behind each CP
	// (the paper uses 5).
	NumRandom int
	// Seed drives all randomness.
	Seed int64
	// MaxExactCost is the Σ|N_e|² threshold above which counting switches
	// from MoCHy-E to MoCHy-A+ (the paper likewise uses MoCHy-A+ with
	// r = 2M on its heavy datasets).
	MaxExactCost float64
	// SampleRatio sets r = SampleRatio·|∧| when MoCHy-A+ is used.
	SampleRatio float64
}

// DefaultConfig returns the full-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:        1,
		Workers:      1,
		NumRandom:    5,
		Seed:         1,
		MaxExactCost: 2e9,
		SampleRatio:  0.10,
	}
}

// scaled returns a dataset spec with Nodes/Edges scaled down.
func (c Config) scaled(spec generator.DatasetSpec) generator.Config {
	cfg := spec.Config
	if c.Scale > 0 && c.Scale < 1 {
		cfg.Nodes = max(16, int(float64(cfg.Nodes)*c.Scale))
		cfg.Edges = max(8, int(float64(cfg.Edges)*c.Scale))
	}
	return cfg
}

// exactCost estimates the cost Σ_e |e|·|N_e|² of the Algorithm-2 pair loop
// from the projection. CountExact runs the cheaper oriented counter on a
// Projected, but this model is kept as the gate between exact and sampled
// counts, so the experiments pick the same method as before.
func exactCost(g *hypergraph.Hypergraph, p *projection.Projected) float64 {
	cost := 0.0
	for e := 0; e < g.NumEdges(); e++ {
		d := float64(p.Degree(int32(e)))
		cost += float64(g.EdgeSize(e)) * d * d
	}
	return cost
}

// countAdaptive counts h-motif instances exactly when affordable and with
// MoCHy-A+ otherwise, returning the counts and the method label.
func (c Config) countAdaptive(g *hypergraph.Hypergraph, p *projection.Projected, seed int64) (mochy.Counts, string) {
	if exactCost(g, p) <= c.MaxExactCost || p.NumWedges() == 0 {
		return mochy.CountExact(g, p, c.Workers), "MoCHy-E"
	}
	r := int(c.SampleRatio * float64(p.NumWedges()))
	if r < 1000 {
		r = 1000
	}
	return mochy.CountWedgeSamples(g, p, p, r, seed, c.Workers), "MoCHy-A+"
}

// countReference produces the reference counts an experiment compares
// against: exact when affordable under MaxExactCost, otherwise a MoCHy-A+
// estimate at three times the configured sample ratio (still unbiased, with
// far lower variance than the sweep points it serves as reference for).
func (c Config) countReference(g *hypergraph.Hypergraph, p *projection.Projected, seed int64) (mochy.Counts, string) {
	if exactCost(g, p) <= c.MaxExactCost || p.NumWedges() == 0 {
		return mochy.CountExact(g, p, c.Workers), "MoCHy-E"
	}
	ratio := 3 * c.SampleRatio
	if ratio > 0.5 {
		ratio = 0.5
	}
	r := int(ratio * float64(p.NumWedges()))
	if r < 3000 {
		r = 3000
	}
	return mochy.CountWedgeSamples(g, p, p, r, seed, c.Workers), "MoCHy-A+(ref)"
}

// randomCounts counts h-motif instances in NumRandom Chung-Lu
// randomizations of g, reusing the adaptive strategy.
func (c Config) randomCounts(g *hypergraph.Hypergraph, seed int64) []*mochy.Counts {
	rz := nullmodel.NewRandomizer(g)
	out := make([]*mochy.Counts, 0, c.NumRandom)
	for i := 0; i < c.NumRandom; i++ {
		rg := rz.Generate(rand.New(rand.NewSource(seed + int64(i)*7919)))
		rp := projection.Build(rg)
		counts, _ := c.countAdaptive(rg, rp, seed+int64(i)*104729)
		out = append(out, &counts)
	}
	return out
}

// newTabWriter returns a tabwriter suited for aligned experiment tables.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// sciNotation formats a count the way Table 3 does (e.g. "9.6E07").
func sciNotation(v float64) string {
	if v == 0 {
		return "0.0E00"
	}
	return fmt.Sprintf("%.1E", v)
}
