package mochy

import (
	"math"
	"math/rand"
	"testing"

	"mochy/internal/motif"
	"mochy/internal/projection"
	"mochy/internal/testutil"
)

func TestPairStatisticsBasics(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	st := ComputePairStatistics(g, p)
	// 3 instances total in the paper example.
	total := 0.0
	for t2 := 0; t2 < motif.Count; t2++ {
		total += st.M[t2]
	}
	if total != 3 {
		t.Fatalf("total instances = %v, want 3", total)
	}
	// Ordered-pair tallies are consistent: Σ_l p_l[t] = M[t]·(M[t]-1).
	for t2 := 0; t2 < motif.Count; t2++ {
		pairSum := st.P[t2][0] + st.P[t2][1] + st.P[t2][2]
		if want := st.M[t2] * (st.M[t2] - 1); pairSum != want {
			t.Fatalf("motif %d: Σp = %v, want %v", t2+1, pairSum, want)
		}
		qSum := st.Q[t2][0] + st.Q[t2][1]
		if want := st.M[t2] * (st.M[t2] - 1); qSum != want {
			t.Fatalf("motif %d: Σq = %v, want %v", t2+1, qSum, want)
		}
	}
}

// empiricalVariance runs the estimator `trials` times and returns the
// per-motif sample variance.
func empiricalVariance(trials int, run func(seed int64) Counts) [motif.Count]float64 {
	var sum, sumSq [motif.Count]float64
	for trial := 0; trial < trials; trial++ {
		est := run(int64(trial))
		for t := range est {
			sum[t] += est[t]
			sumSq[t] += est[t] * est[t]
		}
	}
	n := float64(trials)
	var out [motif.Count]float64
	for t := range out {
		mean := sum[t] / n
		out[t] = (sumSq[t] - n*mean*mean) / (n - 1)
	}
	return out
}

// checkVarianceAgreement compares empirical and theoretical per-motif
// variances for motifs with non-trivial variance mass.
func checkVarianceAgreement(t *testing.T, label string, emp, theory [motif.Count]float64) {
	t.Helper()
	checked := 0
	for tt := 0; tt < motif.Count; tt++ {
		if theory[tt] < 25 { // skip motifs with too little mass to measure
			continue
		}
		checked++
		ratio := emp[tt] / theory[tt]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("%s motif %d: empirical var %.1f vs theory %.1f (ratio %.2f)",
				label, tt+1, emp[tt], theory[tt], ratio)
		}
	}
	if checked == 0 {
		t.Fatalf("%s: no motif had enough variance mass to check", label)
	}
}

func TestTheorem2VarianceMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := testutil.RandomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	st := ComputePairStatistics(g, p)
	s := 6
	theory := EdgeSamplingVariance(st, g.NumEdges(), s)
	const trials = 3000
	emp := empiricalVariance(trials, func(seed int64) Counts {
		return CountEdgeSamples(g, p, s, seed, 1)
	})
	checkVarianceAgreement(t, "MoCHy-A", emp, theory)
}

func TestTheorem4VarianceMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := testutil.RandomHypergraph(rng, 20, 30, 5)
	p := projection.Build(g)
	if p.NumWedges() == 0 {
		t.Skip("no wedges")
	}
	st := ComputePairStatistics(g, p)
	r := 8
	theory := WedgeSamplingVariance(st, p.NumWedges(), r)
	const trials = 3000
	emp := empiricalVariance(trials, func(seed int64) Counts {
		return CountWedgeSamples(g, p, p, r, seed, 1)
	})
	checkVarianceAgreement(t, "MoCHy-A+", emp, theory)
}

func TestVarianceNonNegative(t *testing.T) {
	// Theoretical variances are variances: never negative, zero when the
	// motif has no instances.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomHypergraph(rng, 15, 25, 5)
		p := projection.Build(g)
		st := ComputePairStatistics(g, p)
		va := EdgeSamplingVariance(st, g.NumEdges(), 3)
		vw := WedgeSamplingVariance(st, p.NumWedges(), 3)
		for tt := 0; tt < motif.Count; tt++ {
			if st.M[tt] == 0 {
				if va[tt] != 0 || vw[tt] != 0 {
					t.Fatalf("motif %d absent but variance nonzero", tt+1)
				}
				continue
			}
			if va[tt] < -1e-9 || math.IsNaN(va[tt]) {
				t.Fatalf("motif %d: negative Theorem 2 variance %v", tt+1, va[tt])
			}
			if vw[tt] < -1e-9 || math.IsNaN(vw[tt]) {
				t.Fatalf("motif %d: negative Theorem 4 variance %v", tt+1, vw[tt])
			}
		}
	}
}

func TestWedgeSharingBoundedByEdgeSharing(t *testing.T) {
	// The provable step of the Section 3.3 comparison: q_1[t] ≤ p_2[t] —
	// two instances sharing a hyperwedge necessarily share its two
	// hyperedges. (The paper's "A+ beats A" conclusion additionally relies
	// on p_1 dominating in real data, which is an empirical statement
	// covered by TestAPlusVarianceNotWorseThanA.)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomHypergraph(rng, 20, 40, 5)
		p := projection.Build(g)
		st := ComputePairStatistics(g, p)
		for tt := 0; tt < motif.Count; tt++ {
			if st.Q[tt][1] > st.P[tt][2] {
				t.Fatalf("seed %d motif %d: q1 = %v > p2 = %v",
					seed, tt+1, st.Q[tt][1], st.P[tt][2])
			}
		}
	}
}
