// extensions.go re-exports the library surface for the paper's
// generalizations and future-work directions: dynamic counting, temporal
// sliding-window analysis, the k-hyperedge motif-space census of
// Appendix F, and the motif-based clustering and ranking applications.
package mochy

import (
	"context"

	"mochy/internal/anomaly"
	"mochy/internal/cluster"
	"mochy/internal/cp"
	"mochy/internal/dynamic"
	"mochy/internal/generator"
	"mochy/internal/motifspace"
	"mochy/internal/nullmodel"
	"mochy/internal/rank"
	"mochy/internal/stream"
	"mochy/internal/temporal"
)

// DynamicCounter maintains exact h-motif counts under hyperedge insertions
// and deletions; its state always equals MoCHy-E on the live hyperedge set.
// Each update counts the instances that contain the updated hyperedge with
// MoCHy-A's walker, over sorted projected-graph rows kept per hyperedge.
type DynamicCounter = dynamic.Counter

// NewDynamicCounter returns an empty dynamic counter.
func NewDynamicCounter() *DynamicCounter { return dynamic.New() }

// DynamicFromHypergraph bulk-loads g into a dynamic counter, returning the
// counter and the id assigned to each of g's hyperedges.
func DynamicFromHypergraph(g *Hypergraph) (*DynamicCounter, []int32, error) {
	return dynamic.FromHypergraph(g)
}

// WindowConfig parameterizes a temporal sliding-window sweep.
type WindowConfig = temporal.Config

// Window is the exact h-motif census of one time window.
type Window = temporal.Window

// SweepWindows slides windows over a timed hypergraph, returning one exact
// h-motif census per window, maintained incrementally. A sweep of more than
// 4,096 windows is refused before its first window.
func SweepWindows(g *Hypergraph, cfg WindowConfig) ([]Window, error) {
	return temporal.Sweep(context.Background(), g, cfg)
}

// WindowDrift returns one minus the Pearson correlation between consecutive
// windows' motif-fraction vectors.
func WindowDrift(windows []Window) []float64 { return temporal.Drift(windows) }

// MostAnomalousWindow returns the index of the window whose motif
// composition shifted the most, or -1 with fewer than two windows.
func MostAnomalousWindow(windows []Window) int { return temporal.MostAnomalous(windows) }

// OpenFractionSeries extracts each window's open-motif fraction, the series
// of Figure 7(b).
func OpenFractionSeries(windows []Window) []float64 {
	return temporal.OpenFractionSeries(windows)
}

// CountMotifClasses returns the number of h-motif equivalence classes for k
// connected hyperedges: 26 for k=3, 1,853 for k=4 and 18,656,322 for k=5
// (Section 2.2 generalization, Appendix F).
func CountMotifClasses(k int) (int64, error) { return motifspace.CountClasses(k) }

// CountLabeledMotifPatterns returns the number of valid labeled emptiness
// patterns for k hyperedges (non-empty, distinct, connected) — the identity
// term of the Burnside average behind CountMotifClasses.
func CountLabeledMotifPatterns(k int) int64 { return motifspace.CountLabeledConnected(k) }

// ClusterConfig parameterizes motif-based hyperedge clustering.
type ClusterConfig = cluster.Config

// ClusterLabels groups hyperedges by weighted label propagation over their
// h-motif co-participation graph.
func ClusterLabels(g *Hypergraph, p Projector, cfg ClusterConfig) []int {
	return cluster.Labels(g, p, cfg)
}

// ClusterSizes returns the size of each cluster, indexed by label.
func ClusterSizes(labels []int) []int { return cluster.Sizes(labels) }

// ClusterMembers returns each cluster's hyperedge indices, largest first.
func ClusterMembers(labels []int) [][]int { return cluster.Members(labels) }

// MotifCooccurrence returns, for every adjacent hyperedge pair, the number
// of h-motif instances containing both.
func MotifCooccurrence(g *Hypergraph, p Projector, closedOnly bool) map[[2]int32]int64 {
	return cluster.Cooccurrence(g, p, closedOnly)
}

// RankConfig parameterizes motif-aware hyperedge ranking.
type RankConfig = rank.Config

// Weighting selects the transition weights of the ranking walk.
type Weighting = rank.Weighting

// Ranking weight schemes.
const (
	WeightOverlap     = rank.WeightOverlap
	WeightMotif       = rank.WeightMotif
	WeightClosedMotif = rank.WeightClosedMotif
)

// RankScores returns one motif-aware PageRank score per hyperedge.
func RankScores(g *Hypergraph, p Projector, cfg RankConfig) ([]float64, error) {
	return rank.Scores(g, p, cfg)
}

// TopRanked returns the indices of the k highest-scoring hyperedges.
func TopRanked(scores []float64, k int) []int { return rank.Top(scores, k) }

// StreamEstimator estimates cumulative h-motif counts over a hyperedge
// stream with a fixed memory budget (reservoir sampling, Trièst-style).
type StreamEstimator = stream.Estimator

// NewStreamEstimator returns a streaming estimator holding at most capacity
// hyperedges.
func NewStreamEstimator(capacity int, seed int64) (*StreamEstimator, error) {
	return stream.NewEstimator(capacity, seed)
}

// SwapRandomizer generates degree-exact randomizations by double-edge swaps
// on the bipartite incidence graph — the alternative null model for the
// null-model-robustness ablation.
type SwapRandomizer = nullmodel.SwapRandomizer

// NewSwapRandomizer prepares a degree-exact (swap chain) randomizer for g.
func NewSwapRandomizer(g *Hypergraph) *SwapRandomizer { return nullmodel.NewSwapRandomizer(g) }

// Dataset generates one of the 11 named synthetic benchmark datasets
// standing in for Table 2's real hypergraphs (see DESIGN.md).
func Dataset(name string) (*Hypergraph, error) { return generator.Dataset(name) }

// DatasetNames returns the 11 benchmark dataset names in Table 2 order.
func DatasetNames() []string { return generator.DatasetNames() }

// Dendrogram is the average-linkage hierarchy over characteristic profiles,
// extending Figure 6's flat similarity matrix.
type Dendrogram = cp.Dendrogram

// BuildDendrogram hierarchically clusters characteristic profiles by their
// average pairwise correlation.
func BuildDendrogram(profiles []Profile) *Dendrogram { return cp.BuildDendrogram(profiles) }

// DomainPurity scores cluster labels against domain names: the fraction of
// members whose cluster's majority domain is their own.
func DomainPurity(labels []int, domains []string) float64 {
	return cp.DomainPurity(labels, domains)
}

// ProfileFromSignificance normalizes a significance vector into a
// characteristic profile (Equation 2).
func ProfileFromSignificance(delta [NumMotifs]float64) Profile {
	return cp.FromSignificance(delta)
}

// AnomalyScore is one hyperedge's structural anomaly assessment based on
// its h-motif participation distribution.
type AnomalyScore = anomaly.Score

// AnomalyScores scores every hyperedge by how far its motif participation
// distribution deviates from the dataset aggregate, counting over workers
// goroutines.
func AnomalyScores(g *Hypergraph, p Projector, workers int) []AnomalyScore {
	// Scores fails only on cancellation, which a background context never
	// signals.
	scores, _ := anomaly.Scores(context.Background(), g, p, workers)
	return scores
}

// TopAnomalies returns the k highest-deviation anomaly scores.
func TopAnomalies(scores []AnomalyScore, k int) []AnomalyScore {
	return anomaly.Top(scores, k)
}

// CountClosedMotifClasses returns the number of k-edge h-motif classes
// whose hyperedges are pairwise adjacent — the generalization of the
// paper's 20 closed 3-edge motifs. Supported for k up to 4.
func CountClosedMotifClasses(k int) (int64, error) {
	return motifspace.CountClassesComplete(k)
}
