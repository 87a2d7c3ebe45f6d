package mochy

import (
	"math"
	"math/rand"
	"testing"

	"mochy/internal/projection"
)

func TestEdgeSamplingFullCoverageUnbiased(t *testing.T) {
	// Averaging many independent MoCHy-A runs must converge to the exact
	// counts (Theorem 2). Uses a small graph and many trials.
	rng := rand.New(rand.NewSource(100))
	g := randomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	exact := CountExact(g, p, 1)
	if exact.Total() == 0 {
		t.Skip("random graph has no instances")
	}
	const trials = 300
	var mean Counts
	for trial := 0; trial < trials; trial++ {
		est := CountEdgeSamples(g, p, g.NumEdges()/2, int64(trial), 1)
		for i := range mean {
			mean[i] += est[i] / trials
		}
	}
	if err := mean.RelativeError(&exact); err > 0.08 {
		t.Fatalf("MoCHy-A mean of %d runs has relative error %.4f > 0.08\nmean  %v\nexact %v",
			trials, err, mean.String(), exact.String())
	}
}

func TestWedgeSamplingFullCoverageUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	g := randomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	exact := CountExact(g, p, 1)
	if exact.Total() == 0 {
		t.Skip("random graph has no instances")
	}
	const trials = 300
	r := int(p.NumWedges() / 2)
	if r == 0 {
		t.Skip("no wedges")
	}
	var mean Counts
	for trial := 0; trial < trials; trial++ {
		est := CountWedgeSamples(g, p, p, r, int64(trial), 1)
		for i := range mean {
			mean[i] += est[i] / trials
		}
	}
	if err := mean.RelativeError(&exact); err > 0.08 {
		t.Fatalf("MoCHy-A+ mean of %d runs has relative error %.4f > 0.08\nmean  %v\nexact %v",
			trials, err, mean.String(), exact.String())
	}
}

func TestWedgeSamplingWithRejectionSampler(t *testing.T) {
	// MoCHy-A+ over the rejection sampler (the on-the-fly configuration)
	// must agree in expectation with the exact counts too.
	rng := rand.New(rand.NewSource(300))
	g := randomHypergraph(rng, 15, 25, 4)
	p := projection.Build(g)
	exact := CountExact(g, p, 1)
	if exact.Total() == 0 || p.NumWedges() == 0 {
		t.Skip("degenerate graph")
	}
	sampler := projection.NewRejectionWedgeSampler(g)
	const trials = 200
	r := int(p.NumWedges())
	var mean Counts
	for trial := 0; trial < trials; trial++ {
		est := CountWedgeSamples(g, p, sampler, r, int64(trial), 1)
		for i := range mean {
			mean[i] += est[i] / trials
		}
	}
	if err := mean.RelativeError(&exact); err > 0.08 {
		t.Fatalf("rejection-sampler MoCHy-A+ relative error %.4f > 0.08", err)
	}
}

// TestRejectionSamplerSharedByWorkers: every sampling worker draws from one
// shared RejectionWedgeSampler, so its efficiency counters must be safe to
// update concurrently (run under -race) and still read as a rate in (0, 1].
func TestRejectionSamplerSharedByWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	g := randomHypergraph(rng, 15, 25, 4)
	p := projection.Build(g)
	sampler := projection.NewRejectionWedgeSampler(g)
	if !sampler.HasWedges() {
		t.Skip("degenerate graph")
	}
	CountWedgeSamples(g, p, sampler, 2000, 7, 4)
	if r := sampler.AcceptanceRate(); r <= 0 || r > 1 {
		t.Fatalf("AcceptanceRate = %f, want in (0, 1]", r)
	}
}

func TestApproxDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	g := randomHypergraph(rng, 25, 40, 5)
	p := projection.Build(g)
	a1 := CountEdgeSamples(g, p, 20, 7, 3)
	a2 := CountEdgeSamples(g, p, 20, 7, 3)
	if a1 != a2 {
		t.Fatal("MoCHy-A is not deterministic for a fixed seed/worker count")
	}
	w1 := CountWedgeSamples(g, p, p, 20, 7, 3)
	w2 := CountWedgeSamples(g, p, p, 20, 7, 3)
	if w1 != w2 {
		t.Fatal("MoCHy-A+ is not deterministic for a fixed seed/worker count")
	}
}

func TestApproxZeroSamples(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	if got := CountEdgeSamples(g, p, 0, 1, 1); got.Total() != 0 {
		t.Fatalf("s=0 should produce zero counts, got %v", got.String())
	}
	if got := CountWedgeSamples(g, p, p, 0, 1, 1); got.Total() != 0 {
		t.Fatalf("r=0 should produce zero counts, got %v", got.String())
	}
}

func TestApproxParallelUnbiased(t *testing.T) {
	// Parallel sampling (multiple workers) must remain unbiased.
	rng := rand.New(rand.NewSource(500))
	g := randomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	exact := CountExact(g, p, 1)
	if exact.Total() == 0 {
		t.Skip("no instances")
	}
	const trials = 200
	var mean Counts
	for trial := 0; trial < trials; trial++ {
		est := CountWedgeSamples(g, p, p, int(p.NumWedges()/2)+1, int64(trial), 4)
		for i := range mean {
			mean[i] += est[i] / trials
		}
	}
	if err := mean.RelativeError(&exact); err > 0.08 {
		t.Fatalf("parallel MoCHy-A+ relative error %.4f > 0.08", err)
	}
}

func TestAPlusVarianceNotWorseThanA(t *testing.T) {
	// Section 3.3: at matched sampling ratio α = s/|E| = r/|∧|, MoCHy-A+ has
	// no larger variance than MoCHy-A. Compare empirical total relative
	// errors over repeated runs.
	rng := rand.New(rand.NewSource(600))
	g := randomHypergraph(rng, 30, 60, 5)
	p := projection.Build(g)
	exact := CountExact(g, p, 1)
	if exact.Total() == 0 || p.NumWedges() == 0 {
		t.Skip("degenerate graph")
	}
	alpha := 0.3
	s := int(alpha * float64(g.NumEdges()))
	r := int(alpha * float64(p.NumWedges()))
	if s == 0 || r == 0 {
		t.Skip("graph too small for matched ratios")
	}
	const trials = 120
	var errA, errAPlus float64
	for trial := 0; trial < trials; trial++ {
		a := CountEdgeSamples(g, p, s, int64(trial), 1)
		ap := CountWedgeSamples(g, p, p, r, int64(trial), 1)
		errA += a.RelativeError(&exact)
		errAPlus += ap.RelativeError(&exact)
	}
	if math.IsNaN(errA) || math.IsNaN(errAPlus) {
		t.Fatal("NaN errors")
	}
	// Allow slack: the theory bounds variance, not every finite sample.
	if errAPlus > errA*1.1 {
		t.Fatalf("MoCHy-A+ mean error %.4f should not exceed MoCHy-A %.4f",
			errAPlus/trials, errA/trials)
	}
}
