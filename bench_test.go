package mochy

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (each delegates to internal/experiments, which
// prints the same rows the paper reports when run via cmd/experiments), plus
// micro-benchmarks of the core operations and the ablation benches called
// out in DESIGN.md. Benchmarks run at a reduced dataset scale so the whole
// suite finishes on a laptop; `cmd/experiments -scale 1` runs the full size.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mochy/api"
	"mochy/internal/anomaly"
	"mochy/internal/cluster"
	"mochy/internal/cp"
	"mochy/internal/dynamic"
	"mochy/internal/experiments"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	"mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
	"mochy/internal/rank"
	"mochy/internal/server"
	"mochy/internal/stats"
	"mochy/internal/stream"
	"mochy/internal/temporal"
)

// benchConfig is the shared reduced-scale configuration.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.12
	cfg.NumRandom = 3
	cfg.MaxExactCost = 2e8
	cfg.SampleRatio = 0.05
	return cfg
}

func BenchmarkTable2DatasetStatistics(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RealVsRandom(b *testing.B) {
	cfg := benchConfig()
	var meanRC float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		meanRC = res.MeanAbsRelativeCount()
	}
	b.ReportMetric(meanRC, "mean|RC|")
}

func BenchmarkTable4HyperedgePrediction(b *testing.B) {
	cfg := benchConfig()
	var hm26, hc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hm26, hc = res.MeanAUC("HM26"), res.MeanAUC("HC")
	}
	b.ReportMetric(hm26, "AUC-HM26")
	b.ReportMetric(hc, "AUC-HC")
}

func BenchmarkFigure5CharacteristicProfiles(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6SimilarityMatrices(b *testing.B) {
	cfg := benchConfig()
	var hGap, nGap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hGap, nGap = res.HGap, res.NGap
	}
	b.ReportMetric(hGap, "gap-hmotif")
	b.ReportMetric(nGap, "gap-netmotif")
}

func BenchmarkFigure7Evolution(b *testing.B) {
	cfg := benchConfig()
	var early, late float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		early, late = res.EarlyOpen, res.LateOpen
	}
	b.ReportMetric(early, "open-early")
	b.ReportMetric(late, "open-late")
}

func BenchmarkFigure8SpeedAccuracy(b *testing.B) {
	cfg := benchConfig()
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure8(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.Datasets[0].APlusAdvantage
	}
	b.ReportMetric(adv, "A+/A-error-advantage")
}

func BenchmarkFigure9SampleSizeCP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10Parallel(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure10(cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Memoization(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ3DomainIdentification measures leave-one-out domain
// identification over the 11 dataset CPs (the paper's Q3).
func BenchmarkQ3DomainIdentification(b *testing.B) {
	cfg := benchConfig()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunQ3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc, "loo-accuracy")
}

// --- Micro-benchmarks of the core operations ---

// benchGraph is a moderate contact-flavored hypergraph shared by the micro
// benches.
func benchGraph() *Hypergraph {
	return generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 250, Edges: 2000, Seed: 3,
	})
}

func BenchmarkProjectionBuild(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		projection.Build(g)
	}
}

func BenchmarkCountExact(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mochy.CountExact(g, p, 1)
	}
}

func BenchmarkCountEdgeSamples(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	s := g.NumEdges() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mochy.CountEdgeSamples(g, p, s, int64(i), 1)
	}
}

func BenchmarkCountWedgeSamples(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	r := int(p.NumWedges() / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mochy.CountWedgeSamples(g, p, p, r, int64(i), 1)
	}
}

func BenchmarkPerEdgeCounts(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel-4", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mochy.PerEdgeCounts(context.Background(), g, p, mochy.Options{Workers: tc.workers})
			}
		})
	}
}

func BenchmarkClassifyTriple(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(1))
	n := int32(g.NumEdges())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mochy.Classify(g, rng.Int31n(n), rng.Int31n(n), rng.Int31n(n))
	}
}

// --- Ablation benches (DESIGN.md Section 4) ---

// BenchmarkAblationSamplerVariance compares the estimator error of MoCHy-A
// and MoCHy-A+ at the matched sampling ratio α = 10% (Section 3.3's variance
// analysis). The reported metrics carry the comparison; wall-clock shows the
// equal-cost claim.
func BenchmarkAblationSamplerVariance(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	exact := mochy.CountExact(g, p, 1)
	s := g.NumEdges() / 10
	r := int(p.NumWedges() / 10)
	b.Run("MoCHy-A", func(b *testing.B) {
		errs := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			est := mochy.CountEdgeSamples(g, p, s, int64(i), 1)
			errs = append(errs, est.RelativeError(&exact))
		}
		b.ReportMetric(stats.Mean(errs), "rel-err")
	})
	b.Run("MoCHy-A+", func(b *testing.B) {
		errs := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			est := mochy.CountWedgeSamples(g, p, p, r, int64(i), 1)
			errs = append(errs, est.RelativeError(&exact))
		}
		b.ReportMetric(stats.Mean(errs), "rel-err")
	})
}

// BenchmarkAblationMemoPolicy compares the three retention policies of the
// on-the-fly projector at a 1% budget (Section 3.4's prioritization claim).
func BenchmarkAblationMemoPolicy(b *testing.B) {
	g := benchGraph()
	totalEntries := 2 * projection.CountWedges(g)
	budget := totalEntries / 100
	sampler := projection.NewRejectionWedgeSampler(g)
	r := 500
	for _, policy := range []projection.Policy{
		projection.PolicyDegree, projection.PolicyRandom, projection.PolicyLRU,
	} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				m := projection.NewMemoized(g, budget, policy)
				mochy.CountWedgeSamples(g, m, sampler, r, int64(i), 1)
				total := m.Hits() + m.Computes()
				if total > 0 {
					hitRate = float64(m.Hits()) / float64(total)
				}
			}
			b.ReportMetric(hitRate, "hit-rate")
		})
	}
}

// BenchmarkAblationWeightLookup compares the binary-searched adjacency
// lookup used by Overlap against a global hash map keyed by edge pairs (the
// alternative Lemma 2 mentions).
func BenchmarkAblationWeightLookup(b *testing.B) {
	g := benchGraph()
	p := projection.Build(g)
	pairs := make([][2]int32, 4096)
	rng := rand.New(rand.NewSource(9))
	n := int32(g.NumEdges())
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	b.Run("binary-search", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			sink += p.Overlap(pr[0], pr[1])
		}
		_ = sink
	})
	b.Run("hash-map", func(b *testing.B) {
		m := make(map[int64]int32)
		for e := int32(0); int(e) < g.NumEdges(); e++ {
			for _, nb := range p.Neighbors(e) {
				m[int64(e)<<32|int64(nb.Edge)] = nb.Overlap
			}
		}
		b.ResetTimer()
		var sink int32
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			sink += m[int64(pr[0])<<32|int64(pr[1])]
		}
		_ = sink
	})
}

// BenchmarkAblationTripleIntersection compares the smallest-edge scan of
// Lemma 2 against a naive scan of the first edge.
func BenchmarkAblationTripleIntersection(b *testing.B) {
	g := benchGraph()
	rng := rand.New(rand.NewSource(10))
	n := g.NumEdges()
	triples := make([][3]int, 4096)
	for i := range triples {
		triples[i] = [3]int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
	}
	b.Run("smallest-edge-scan", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			t := triples[i%len(triples)]
			sink += g.TripleIntersectionSize(t[0], t[1], t[2])
		}
		_ = sink
	})
	b.Run("naive-first-edge", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			t := triples[i%len(triples)]
			for _, v := range g.Edge(t[0]) {
				if g.EdgeContains(t[1], v) && g.EdgeContains(t[2], v) {
					sink++
				}
			}
		}
		_ = sink
	})
}

// ---------------------------------------------------------------------------
// Extension benches: dynamic counting, temporal sweeps, the Appendix F
// census, and the motif-based applications.

// BenchmarkAppendixFMotifSpace regenerates the Section 2.2 / Appendix F
// census: 26, 1,853 and 18,656,322 h-motif classes for k = 3, 4, 5.
func BenchmarkAppendixFMotifSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAppendixF(5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChurnGraph is the shared workload for the dynamic-counter benches.
func benchChurnGraph() *hypergraph.Hypergraph {
	return generator.Generate(generator.Config{
		Domain: generator.Coauthorship, Nodes: 400, Edges: 700, Seed: 77,
	})
}

// BenchmarkDynamicChurn measures insert+delete cost on a live hypergraph:
// each iteration inserts one fresh hyperedge and deletes it again.
func BenchmarkDynamicChurn(b *testing.B) {
	g := benchChurnGraph()
	c, _, err := dynamic.FromHypergraph(g)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	edge := make([]int32, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range edge {
			edge[j] = int32(rng.Intn(400))
		}
		id, err := c.Insert(edge)
		if err == dynamic.ErrDuplicateEdge {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDynamicVsRecount contrasts one dynamic update against
// the naive alternative, a full MoCHy-E recount — the ablation justifying
// the incremental design.
func BenchmarkAblationDynamicVsRecount(b *testing.B) {
	g := benchChurnGraph()
	b.Run("dynamic-update", func(b *testing.B) {
		c, _, err := dynamic.FromHypergraph(g)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		edge := make([]int32, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range edge {
				edge[j] = int32(rng.Intn(400))
			}
			id, err := c.Insert(edge)
			if err == dynamic.ErrDuplicateEdge {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mochy.CountExact(g, projection.Build(g), 1)
		}
	})
}

// BenchmarkTemporalSweep measures a full sliding-window sweep over the
// Figure 7 temporal workload.
func BenchmarkTemporalSweep(b *testing.B) {
	cfg := generator.DefaultTemporal()
	cfg.Nodes = 400
	cfg.EdgesFirst = 60
	cfg.EdgesLast = 260
	g := generator.GenerateTemporal(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows, err := temporal.Sweep(context.Background(), g, temporal.Config{Width: 3, Stride: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(windows) == 0 {
			b.Fatal("no windows")
		}
	}
}

// BenchmarkClusterLabels measures motif-based label propagation.
func BenchmarkClusterLabels(b *testing.B) {
	g := benchChurnGraph()
	p := projection.Build(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Labels(g, p, cluster.Config{ClosedOnly: true, Seed: int64(i)})
	}
}

// BenchmarkRankScores measures motif-aware PageRank under both weightings.
func BenchmarkRankScores(b *testing.B) {
	g := benchChurnGraph()
	p := projection.Build(g)
	for _, w := range []struct {
		name string
		w    rank.Weighting
	}{{"overlap", rank.WeightOverlap}, {"motif", rank.WeightMotif}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rank.Scores(g, p, rank.Config{Weights: w.w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamIngest measures per-hyperedge cost of the streaming
// estimator at a fixed reservoir budget.
func BenchmarkStreamIngest(b *testing.B) {
	g := benchChurnGraph()
	s, err := stream.NewEstimator(128, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Ingest(g.Edge(i % g.NumEdges())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNullModel contrasts the paper's Chung-Lu null with the
// degree-exact swap-chain null: both are timed, and the correlation between
// the CPs they induce is reported as a custom metric (values near 1 mean
// the paper's significance results are not artifacts of the soft degree
// constraint).
func BenchmarkAblationNullModel(b *testing.B) {
	g := generator.Generate(generator.Config{Domain: generator.Email, Nodes: 100, Edges: 350, Seed: 17})
	p := projection.Build(g)
	real := mochy.CountExact(g, p, 1)
	countAll := func(copies []*hypergraph.Hypergraph) []*mochy.Counts {
		out := make([]*mochy.Counts, len(copies))
		for i, c := range copies {
			cc := mochy.CountExact(c, projection.Build(c), 1)
			out[i] = &cc
		}
		return out
	}
	b.Run("chung-lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nullmodel.NewRandomizer(g).GenerateN(5, int64(i))
		}
	})
	b.Run("swap-chain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nullmodel.NewSwapRandomizer(g).GenerateN(5, int64(i))
		}
	})
	b.Run("cp-agreement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cl := cp.Compute(&real, countAll(nullmodel.NewRandomizer(g).GenerateN(5, int64(i))))
			sw := cp.Compute(&real, countAll(nullmodel.NewSwapRandomizer(g).GenerateN(5, int64(i))))
			b.ReportMetric(cp.Correlation(cl, sw), "cp-correlation")
		}
	})
}

// BenchmarkAnomalyScores measures the per-edge participation scoring pass.
func BenchmarkAnomalyScores(b *testing.B) {
	g := benchChurnGraph()
	p := projection.Build(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anomaly.Scores(context.Background(), g, p, 1)
	}
}

// BenchmarkMotif4Census regenerates the 4-edge generalization experiment
// (Section 2.2) on the sparse dataset trio.
func BenchmarkMotif4Census(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.06
	cfg.NumRandom = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMotif4(cfg, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerCount measures mochyd's v1 count job over real HTTP, from
// the 202 to the result event: "miss" re-uploads the graph each iteration so
// every query runs MoCHy-E cold, "hit" uploads once and serves every query
// from the LRU result cache. The acceptance bar for the cache is hit ≥ 10×
// faster than miss.
func BenchmarkServerCount(b *testing.B) {
	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 300, Edges: 2000, Seed: 17,
	})
	var text strings.Builder
	if err := g.Write(&text); err != nil {
		b.Fatal(err)
	}

	upload := func(b *testing.B, ts *httptest.Server) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/bench", strings.NewReader(text.String()))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", api.ContentTypeText)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("upload: HTTP %d", resp.StatusCode)
		}
	}
	// count starts an exact count job and reads its event stream up to the
	// terminal event.
	count := func(b *testing.B, ts *httptest.Server) api.CountResult {
		resp, err := http.Post(ts.URL+"/v1/graphs/bench/count", "application/json", strings.NewReader(`{"algorithm": "exact"}`))
		if err != nil {
			b.Fatal(err)
		}
		var j api.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			b.Fatalf("start count: HTTP %d (%v)", resp.StatusCode, err)
		}
		ev, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			b.Fatal(err)
		}
		defer ev.Body.Close()
		dec := json.NewDecoder(ev.Body)
		for {
			var e api.JobEvent
			if err := dec.Decode(&e); err != nil {
				b.Fatal(err)
			}
			switch e.Type {
			case api.EventResult:
				var res api.CountResult
				if err := json.Unmarshal(e.Result, &res); err != nil {
					b.Fatal(err)
				}
				return res
			case api.EventError:
				b.Fatalf("count job failed: %s", e.Error)
			}
		}
	}

	b.Run("miss", func(b *testing.B) {
		ts := httptest.NewServer(server.New(server.DefaultConfig()))
		defer ts.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			upload(b, ts) // re-upload bumps the generation: next count is cold
			b.StartTimer()
			if count(b, ts).Cached {
				b.Fatal("miss benchmark was served from cache")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		ts := httptest.NewServer(server.New(server.DefaultConfig()))
		defer ts.Close()
		upload(b, ts)
		total := count(b, ts).Total
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := count(b, ts)
			if !res.Cached {
				b.Fatal("hit benchmark missed the cache")
			}
			if res.Total != total {
				b.Fatal("cached total drifted")
			}
		}
	})
}
