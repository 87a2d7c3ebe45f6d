package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mochy/api"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
)

// benchEnv mirrors the server's wiring: every stage, count included, goes
// through the memo, so the cached variant measures exactly what a prefix
// re-run costs in production — cache lookups plus the one recomputed suffix
// stage.
func benchEnv(g *hypergraph.Hypergraph, cache *mapCache) *Env {
	proj := projection.Build(g)
	return &Env{
		Graph:      g,
		Proj:       func() projection.Projector { return proj },
		Name:       "bench",
		GraphID:    "bench#1",
		MaxWorkers: 4,
		Pool:       testPool{},
		Cache:      cache.memo,
		Count: func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, error) {
			return counting.CountExact(g, proj, workers), nil
		},
	}
}

func benchPlan(b *testing.B, topK int) *Plan {
	b.Helper()
	plan, err := Parse(&api.PipelineRequest{Stages: []api.PipelineStage{
		{ID: "count", Kind: api.StageCount},
		{ID: "sig", Kind: api.StageNullModel, After: []string{"count"},
			Params: json.RawMessage(`{"randomizations": 4, "seed": 7}`)},
		{ID: "rank", Kind: api.StageRank, After: []string{"sig"},
			Params: json.RawMessage(fmt.Sprintf(`{"top_k": %d}`, topK))},
	}}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// BenchmarkPipelinePrefixCache quantifies the re-run economics the plan
// engine is built around. cold runs the full count → chung-lu significance
// → rank plan against an empty cache every iteration (one real count, four
// randomized counts, one PageRank). prefix re-runs a plan whose expensive
// count → null_model prefix is already cached and only the rank stage's
// parameters changed, so each iteration pays two cache hits plus one
// PageRank. The ratio is recorded in BENCH_pipeline.json.
func BenchmarkPipelinePrefixCache(b *testing.B) {
	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 200, Edges: 900, Seed: 13,
	})
	plan := benchPlan(b, 10)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := benchEnv(g, newMapCache())
			if _, err := Run(context.Background(), env, plan); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("prefix", func(b *testing.B) {
		cache := newMapCache()
		env := benchEnv(g, cache)
		if _, err := Run(context.Background(), env, plan); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A different top_k each iteration keeps the rank stage honest
			// (its cache key changes) while the prefix keys stay identical.
			rerun := benchPlan(b, i%1024+1)
			if _, err := Run(context.Background(), env, rerun); err != nil {
				b.Fatal(err)
			}
		}
	})
}
