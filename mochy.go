// Package mochy is a from-scratch Go implementation of "Hypergraph Motifs:
// Concepts, Algorithms, and Discoveries" (Lee, Ko, Shin; VLDB 2020).
//
// It provides hypergraph motifs (h-motifs) — the 26 connectivity patterns of
// three connected hyperedges — together with the MoCHy family of counting
// algorithms (exact, hyperedge-sampling, hyperwedge-sampling, all parallel),
// Chung-Lu hypergraph randomization, and characteristic profiles (CPs) for
// comparing the local structure of hypergraphs across domains.
//
// Quick start:
//
//	g, _ := mochy.ParseString("0 1 2\n0 1 3\n2 3\n")
//	p := mochy.Project(g)
//	counts := mochy.CountExact(g, p, 1)
//	fmt.Println(counts.Total(), "h-motif instances")
//
// The package is a facade over the internal implementation packages; every
// entry point needed by the examples, the CLI tools, and the benchmark
// harness is exported here.
package mochy

import (
	"context"
	"io"
	"math/rand"

	"mochy/internal/cp"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/motif4"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
)

// NumMotifs is the number of h-motifs for three connected hyperedges.
const NumMotifs = motif.Count

// Hypergraph is an immutable hypergraph with dense node and hyperedge IDs.
type Hypergraph = hypergraph.Hypergraph

// Builder accumulates hyperedges and produces a Hypergraph.
type Builder = hypergraph.Builder

// Stats summarizes the global structure of a hypergraph.
type Stats = hypergraph.Stats

// NewBuilder returns a Builder over numNodes nodes (0 grows automatically).
func NewBuilder(numNodes int) *Builder { return hypergraph.NewBuilder(numNodes) }

// FromEdges builds a hypergraph from trusted data, panicking on error.
func FromEdges(numNodes int, edges [][]int32) *Hypergraph {
	return hypergraph.FromEdges(numNodes, edges)
}

// Parse reads a hypergraph from a text stream (one hyperedge per line).
func Parse(r io.Reader) (*Hypergraph, error) { return hypergraph.Parse(r) }

// ParseString parses a hypergraph from a string.
func ParseString(s string) (*Hypergraph, error) { return hypergraph.ParseString(s) }

// ComputeStats computes summary statistics of g.
func ComputeStats(g *Hypergraph) Stats { return hypergraph.ComputeStats(g) }

// Projector serves projected-graph neighborhoods to the counting algorithms.
type Projector = projection.Projector

// Projected is the fully materialized projected graph G¯ = (E, ∧, ω).
type Projected = projection.Projected

// Neighbor is one weighted adjacency of the projected graph.
type Neighbor = projection.Neighbor

// Memoized is the on-the-fly projector with a memory budget (Section 3.4).
type Memoized = projection.Memoized

// Policy selects the memoized projector's retention policy.
type Policy = projection.Policy

// Retention policies for the memoized projector.
const (
	PolicyDegree = projection.PolicyDegree
	PolicyLRU    = projection.PolicyLRU
	PolicyRandom = projection.PolicyRandom
)

// Project materializes the projected graph of g (Algorithm 1).
func Project(g *Hypergraph) *Projected { return projection.Build(g) }

// ProjectOnTheFly returns an on-the-fly projector with the given budget (in
// adjacency entries; 2·|∧| memoizes everything) and retention policy.
func ProjectOnTheFly(g *Hypergraph, budget int64, policy Policy) *Memoized {
	return projection.NewMemoized(g, budget, policy)
}

// WedgeSampler draws uniform hyperwedges for MoCHy-A+.
type WedgeSampler = projection.WedgeSampler

// NewRejectionWedgeSampler samples uniform hyperwedges without a
// materialized projection, enabling on-the-fly MoCHy-A+.
func NewRejectionWedgeSampler(g *Hypergraph) *projection.RejectionWedgeSampler {
	return projection.NewRejectionWedgeSampler(g)
}

// Counts holds one (possibly estimated) count per h-motif.
type Counts = counting.Counts

// Instance is one h-motif instance: three hyperedge IDs and a motif ID.
type Instance = counting.Instance

// CountOptions configures a CountExactOpts run.
type CountOptions = counting.Options

// KernelStats reports how a parallel counting run scheduled and balanced its
// work: worker and chunk counts, chunks redistributed beyond the static fair
// share, busy-time imbalance, and per-phase durations.
type KernelStats = counting.KernelStats

// CountExact counts every h-motif instance exactly (MoCHy-E) with the given
// worker count; see CountExactOpts for which algorithm runs.
func CountExact(g *Hypergraph, p Projector, workers int) Counts {
	return counting.CountExact(g, p, workers)
}

// CountExactOpts is the full-control MoCHy-E entry point. On a materialized
// projection (Project) it runs the oriented counter: open instances are
// tallied from one histogram of each anchor's neighborhood, and closed ones
// are listed once each as degree-ordered triangles of the projected graph,
// after a setup that orients the projection (|∧| transient out-entries).
// Each worker holds 12·|E| bytes of marks, 4·|V| bytes of node positions,
// the node masks of one anchor's out-neighbours and an 8 KB table of
// triangle keys. On the on-the-fly projector it runs
// Algorithm 2's pair loop. Either way anchor hyperedges are scheduled
// through a cost-aware atomic chunk cursor, ctx cancellation stops the run
// at the next anchor boundary, opts.Progress reports anchors done, and the
// returned KernelStats describe how the run balanced. Results are identical
// to CountExact for every worker count.
func CountExactOpts(ctx context.Context, g *Hypergraph, p Projector, opts CountOptions) (Counts, KernelStats, error) {
	return counting.CountExactOpts(ctx, g, p, opts)
}

// CountEdgeSamples runs MoCHy-A (Algorithm 4): s hyperedge samples. Results
// are deterministic for a fixed seed at every worker count.
func CountEdgeSamples(g *Hypergraph, p Projector, s int, seed int64, workers int) Counts {
	return counting.CountEdgeSamples(g, p, s, seed, workers)
}

// CountEdgeSamplesCtx is CountEdgeSamples with cancellation: a cancelled ctx
// stops the run at the next sample block and returns the cancellation cause.
func CountEdgeSamplesCtx(ctx context.Context, g *Hypergraph, p Projector, s int, seed int64, workers int) (Counts, error) {
	return counting.CountEdgeSamplesCtx(ctx, g, p, s, seed, workers)
}

// CountWedgeSamples runs MoCHy-A+ (Algorithm 5): r hyperwedge samples.
// Results are deterministic for a fixed seed at every worker count. Each
// worker holds one RNG, a copy of one of the sampled wedge's
// neighbourhoods, two 4·|E|-byte arrays (the triple intersections and the
// overlaps it reads) and a 1 KB tally of candidates by pattern.
func CountWedgeSamples(g *Hypergraph, p Projector, sampler WedgeSampler, r int, seed int64, workers int) Counts {
	return counting.CountWedgeSamples(g, p, sampler, r, seed, workers)
}

// CountWedgeSamplesCtx is CountWedgeSamples with cancellation: a cancelled
// ctx stops the run at the next sample block and returns the cause.
func CountWedgeSamplesCtx(ctx context.Context, g *Hypergraph, p Projector, sampler WedgeSampler, r int, seed int64, workers int) (Counts, error) {
	return counting.CountWedgeSamplesCtx(ctx, g, p, sampler, r, seed, workers)
}

// Enumerate visits every h-motif instance exactly once (Algorithm 3),
// stopping early when fn returns false.
func Enumerate(g *Hypergraph, p Projector, fn func(Instance) bool) {
	counting.Enumerate(g, p, fn)
}

// PerEdgeCounts returns per-hyperedge motif participation counts (the HM26
// features) together with the aggregate counts. It runs on the same
// scheduler as CountExactOpts, with the same cancellation, progress and
// KernelStats; results are identical for every worker count.
func PerEdgeCounts(ctx context.Context, g *Hypergraph, p Projector, opts CountOptions) ([][]int64, Counts, KernelStats, error) {
	return counting.PerEdgeCounts(ctx, g, p, opts)
}

// Classify returns the h-motif ID (1..26) of three hyperedges of g, or 0 if
// they are not a valid instance.
func Classify(g *Hypergraph, i, j, k int32) int { return counting.Classify(g, i, j, k) }

// MotifInfo describes one h-motif of the catalog.
type MotifInfo = motif.Info

// Motifs returns the 26 h-motifs in ID order.
func Motifs() []MotifInfo { return motif.All() }

// MotifByID returns the catalog entry of motif id (1..26).
func MotifByID(id int) MotifInfo { return motif.Get(id) }

// IsOpenMotif reports whether motif id is open (IDs 17-22).
func IsOpenMotif(id int) bool { return motif.IsOpen(id) }

// NumMotifs4 is the number of h-motifs for four connected hyperedges
// (the Section 2.2 generalization).
const NumMotifs4 = motif4.Count

// CountExact4 counts 4-edge h-motif instances exactly by enumerating
// connected quadruples of the projected graph, returning motif ID ->
// instance count for the occurring motifs. Intended for small to medium
// hypergraphs; complexity grows with projected-graph density.
func CountExact4(g *Hypergraph, p *Projected) map[int]int64 {
	return motif4.CountExact(g, p)
}

// Randomizer generates Chung-Lu randomized copies of a hypergraph.
type Randomizer = nullmodel.Randomizer

// NewRandomizer prepares a Randomizer preserving g's degree and size
// distributions in expectation.
func NewRandomizer(g *Hypergraph) *Randomizer { return nullmodel.NewRandomizer(g) }

// Randomize returns one Chung-Lu randomization of g.
func Randomize(g *Hypergraph, rng *rand.Rand) *Hypergraph {
	return nullmodel.NewRandomizer(g).Generate(rng)
}

// Profile is a characteristic profile: the L2-normalized vector of the 26
// motif significances (Equations 1 and 2).
type Profile = cp.Profile

// Significance returns Δt per motif given real and randomized counts.
func Significance(real *Counts, randomized []*Counts) [NumMotifs]float64 {
	return cp.Significance(real, randomized)
}

// ComputeProfile builds the CP of a hypergraph from real and randomized
// counts.
func ComputeProfile(real *Counts, randomized []*Counts) Profile {
	return cp.Compute(real, randomized)
}

// ProfileCorrelation returns the Pearson correlation of two CPs.
func ProfileCorrelation(a, b Profile) float64 { return cp.Correlation(a, b) }

// SimilarityMatrix returns the pairwise correlation matrix of CPs.
func SimilarityMatrix(profiles []Profile) [][]float64 { return cp.SimilarityMatrix(profiles) }

// DomainGap summarizes a similarity matrix given domain labels: average
// within-domain correlation, average across-domain correlation, and their
// difference.
func DomainGap(sim [][]float64, domains []string) (within, across, gap float64) {
	return cp.DomainGap(sim, domains)
}
