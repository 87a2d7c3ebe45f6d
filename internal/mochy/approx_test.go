package mochy

import (
	"math"
	"math/rand"
	"testing"

	"mochy/internal/generator"
	"mochy/internal/hypergraph"
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

// TestSamplerEstimatesPinned pins MoCHy-A and MoCHy-A+ estimates bit-for-bit
// for three fixed (graph, seed, workers) cases. The values were recorded
// while the samplers still classified through VennFromCardinalities, so a
// change to the samplers' classifier that alters any estimate fails here.
func TestSamplerEstimatesPinned(t *testing.T) {
	contact := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 120, Edges: 600, Seed: 11})
	cases := []struct {
		name        string
		g           *hypergraph.Hypergraph
		seed        int64
		workers     int
		edge, wedge Counts
	}{
		{
			name: "skewed", g: oracleGraph(1, 5), seed: 11, workers: 3,
			edge:  Counts{1345.1533333333332, 193.34666666666666, 38.53333333333333, 7806.853333333333, 682.4933333333333, 3964.2866666666664, 482.46, 117.86666666666666, 10.766666666666666, 11979.56, 1486.5933333333332, 1226.1533333333332, 97.46666666666667, 3197.4733333333334, 261.68666666666667, 224.85333333333332, 7.706666666666666, 23.57333333333333, 206.60666666666665, 906.8933333333333, 1127.78, 6269.033333333333, 7.4799999999999995, 181.67333333333332, 743.6933333333333, 611.8866666666667},
			wedge: Counts{1422.4, 226.48333333333335, 33.86666666666667, 8509, 486.8333333333333, 4028.016666666667, 366.18333333333334, 116.41666666666667, 12.7, 11734.8, 1253.0666666666666, 935.5666666666667, 84.66666666666667, 2618.3166666666666, 171.45, 165.1, 12.7, 12.7, 190.5, 879.4749999999999, 1247.7749999999999, 6457.95, 14.816666666666666, 207.43333333333334, 872.0666666666667, 389.4666666666667},
		},
		{
			name: "duplicates", g: oracleGraph(2, 2), seed: 13, workers: 2,
			edge:  Counts{10.746666666666666, 0, 0, 15.965, 0, 4.8566666666666665, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 98.16666666666667, 2.945, 114.80333333333333, 7.8533333333333335, 69.64666666666666, 0, 0, 5.321666666666666, 5.011666666666667},
			wedge: Counts{12.36, 0, 0, 15.907777777777778, 0, 6.752222222222223, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 116.39, 3.09, 124.115, 12.016666666666666, 64.89, 0, 0, 4.463333333333334, 3.5477777777777777},
		},
		{
			name: "contact", g: contact, seed: 7, workers: 1,
			edge:  Counts{284.76, 86.94, 48.51, 7291.62, 66.15, 5498.64, 709.38, 48.51, 11.97, 12398.4, 1013.04, 1311.66, 112.77, 3730.23, 272.79, 388.71, 5.04, 12.6, 1254.33, 2627.73, 10546.83, 70733.88, 13.86, 384.93, 2718.45, 5707.8},
			wedge: Counts{326.4, 74.8, 34, 6902, 136, 5644, 618.8, 74.8, 6.8, 13232.8, 1013.1999999999999, 1332.8, 95.2, 4440.4, 312.8, 455.59999999999997, 10.2, 10.2, 1183.1999999999998, 2499, 10149, 70839, 27.2, 428.4, 3019.2, 6487.2},
		},
	}
	for _, c := range cases {
		p := projection.Build(c.g)
		if got := CountEdgeSamples(c.g, p, 200, c.seed, c.workers); got != c.edge {
			t.Errorf("%s: MoCHy-A = %#v, pinned %#v", c.name, got, c.edge)
		}
		if got := CountWedgeSamples(c.g, p, p, 300, c.seed, c.workers); got != c.wedge {
			t.Errorf("%s: MoCHy-A+ = %#v, pinned %#v", c.name, got, c.wedge)
		}
	}
}

// TestEstimatorAllocsFlatInBlocks: a sampling run's allocations do not grow
// with its number of sample blocks. Each worker re-seeds one RNG per block
// instead of building one, and reuses its buffers, so 200 blocks of MoCHy-A+
// (r = 12,800) and 8 of MoCHy-A allocate at most a few more times than one
// block: the buffers' growth to the larger neighbourhoods a longer run meets.
func TestEstimatorAllocsFlatInBlocks(t *testing.T) {
	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 250, Edges: 2000, Seed: 3})
	p := projection.Build(g)
	for _, c := range []struct {
		name   string
		count  func(n int)
		blocks int
	}{
		{"MoCHy-A+", func(r int) { CountWedgeSamples(g, p, p, r, 1, 1) }, 200},
		{"MoCHy-A", func(s int) { CountEdgeSamples(g, p, s, 1, 1) }, 8},
	} {
		one := testing.AllocsPerRun(1, func() { c.count(sampleBlock) })
		many := testing.AllocsPerRun(1, func() { c.count(c.blocks * sampleBlock) })
		if many > one+8 {
			t.Errorf("%s: %d sample blocks made %v allocations, one block %v; want at most 8 more",
				c.name, c.blocks, many, one)
		}
	}
}
