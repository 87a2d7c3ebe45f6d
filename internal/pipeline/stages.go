package pipeline

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"mochy/api"
	"mochy/internal/anomaly"
	"mochy/internal/cluster"
	"mochy/internal/cp"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/motif"
	"mochy/internal/nullmodel"
	"mochy/internal/obs"
	"mochy/internal/projection"
	"mochy/internal/rank"
	"mochy/internal/temporal"
)

// maxTemporalWindows bounds a temporal sweep's output: the per-window work is
// amortized, but the response still carries one summary per window.
const maxTemporalWindows = 4096

// Key builds the cache key of every stage result:
// "<graphID>|<kind>|<params>", where graphID is "<name>#<generation>" (see
// Env.GraphID), so every entry of a graph shares its name prefix and dies
// with its generation. params holds exactly what the result depends on;
// worker counts never appear because they change speed, not results.
func Key(graphID, kind, params string) string {
	return graphID + "|" + kind + "|" + params
}

// memo serves one stage result through env.Cache under the stage's key, or
// computes it directly when the env has no cache. compute returns the value
// and its cost, the compute time after pool admission (see admit).
func memo[T any](ctx context.Context, env *Env, kind, params string, randomized bool, compute func(ctx context.Context) (T, time.Duration, error)) (T, bool, error) {
	var zero T
	if env.Cache == nil {
		v, _, err := compute(ctx)
		return v, false, err
	}
	key := Key(env.GraphID, kind, params)
	v, cached, err := env.Cache(ctx, key, randomized, func(ctx context.Context) (any, time.Duration, error) {
		return compute(ctx)
	})
	if err != nil {
		return zero, false, err
	}
	r, ok := v.(T)
	if !ok {
		return zero, false, fmt.Errorf("cache entry %q holds %T, want %T", key, v, zero)
	}
	return r, cached, nil
}

// admit runs f under one pool slot and reports how long f ran: the clock
// starts at admission, so queue wait never inflates an entry's eviction
// weight. The wait itself is recorded as a pool.wait span.
func admit[T any](ctx context.Context, env *Env, f func() (T, error)) (T, time.Duration, error) {
	wait0 := time.Now()
	if err := env.Pool.Acquire(ctx); err != nil {
		env.Tracer.RecordSpan(ctx, "pool.wait", wait0, time.Now(), obs.Attr{Key: "error", Value: err.Error()})
		var zero T
		return zero, 0, err
	}
	defer env.Pool.Release()
	t0 := time.Now()
	env.Tracer.RecordSpan(ctx, "pool.wait", wait0, t0)
	v, err := f()
	return v, time.Since(t0), err
}

// serve serves a stage whose whole compute runs under one pool slot.
func serve[T any](ctx context.Context, env *Env, kind, params string, randomized bool, f func(ctx context.Context) (T, error)) (T, bool, error) {
	return memo(ctx, env, kind, params, randomized, func(ctx context.Context) (T, time.Duration, error) {
		return admit(ctx, env, func() (T, error) { return f(ctx) })
	})
}

// runNullModel scores the graph's real h-motif counts against an ensemble of
// randomized copies: per-motif mean, standard deviation, z-score, and the
// paper's Equation 1 significance / Equation 2 profile. It is the one
// ensemble implementation; the profile stage projects its result. Ensembles
// take the sampling TTL.
func runNullModel(ctx context.Context, env *Env, st *Stage, p *api.NullModelParams, exact *exactStore) (api.SignificanceResult, bool, error) {
	if env.Graph.TotalIncidence() == 0 {
		return api.SignificanceResult{}, false, fmt.Errorf("graph has no incidences to randomize")
	}
	params := fmt.Sprintf("m=%s|n=%d|seed=%d|spi=%d", p.Model, p.Randomizations, p.Seed, p.SwapsPerIncidence)
	res, cached, err := memo(ctx, env, api.StageNullModel, params, true, func(ctx context.Context) (api.SignificanceResult, time.Duration, error) {
		// The real counts come from a dependency count stage when the plan
		// declares one, else from the count memo. Both happen before pool
		// admission, so the stage never holds a slot while asking for another.
		real, err := realCounts(ctx, env, st, p.Workers, exact)
		if err != nil {
			return api.SignificanceResult{}, 0, err
		}
		return admit(ctx, env, func() (api.SignificanceResult, error) {
			kctx, span := env.Tracer.StartSpan(ctx, "kernel.null-model")
			defer span.End()
			span.SetAttr("randomizations", strconv.Itoa(p.Randomizations))
			return significance(kctx, env, st, p, real)
		})
	})
	res.Cached = cached
	return res, cached, err
}

// realCounts returns the graph's exact counts for a null-model stage.
func realCounts(ctx context.Context, env *Env, st *Stage, workers int, exact *exactStore) (*counting.Counts, error) {
	for _, dep := range st.After {
		if c, ok := exact.get(dep); ok {
			return c, nil
		}
	}
	c, _, err := count(ctx, env, &api.CountRequest{Algorithm: api.AlgoExact, Workers: workers}, nil)
	return &c, err
}

// significance generates the ensemble, counts every copy with MoCHy-E and
// scores real against it.
func significance(ctx context.Context, env *Env, st *Stage, p *api.NullModelParams, real *counting.Counts) (api.SignificanceResult, error) {
	start := time.Now()
	var copies []*hypergraph.Hypergraph
	switch p.Model {
	case api.NullModelEdgeSwap:
		r := nullmodel.NewSwapRandomizer(env.Graph)
		r.SwapsPerIncidence = p.SwapsPerIncidence
		copies = r.GenerateN(p.Randomizations, p.Seed)
	default:
		copies = nullmodel.NewRandomizer(env.Graph).GenerateN(p.Randomizations, p.Seed)
	}

	// Copies are counted one after another; a cancelled ctx stops the
	// current copy's kernel at its next anchor boundary.
	workers := env.workers(p.Workers)
	randCounts := make([]*counting.Counts, len(copies))
	for i, g := range copies {
		b0 := time.Now()
		proj := projection.Build(g)
		k0 := time.Now()
		env.Tracer.RecordSpan(ctx, "projection.build", b0, k0)
		c, stats, err := counting.CountExactOpts(ctx, g, proj, counting.Options{Workers: workers})
		if env.KernelStats != nil {
			env.KernelStats(ctx, stats, k0)
		}
		if err != nil {
			return api.SignificanceResult{}, err
		}
		randCounts[i] = &c
		env.emit(api.JobEvent{Type: api.EventProgress, Stage: st.ID, Done: i + 1, Total: len(copies)})
	}

	n := float64(len(randCounts))
	var mean, std, z [motif.Count]float64
	for _, c := range randCounts {
		for m, v := range c {
			mean[m] += v
		}
	}
	for m := range mean {
		mean[m] /= n
	}
	for _, c := range randCounts {
		for m, v := range c {
			d := v - mean[m]
			std[m] += d * d
		}
	}
	for m := range std {
		std[m] = math.Sqrt(std[m] / n)
		if std[m] > 0 {
			z[m] = (real[m] - mean[m]) / std[m]
		}
	}
	delta := cp.Significance(real, randCounts)
	profile := cp.FromSignificance(delta)

	return api.SignificanceResult{
		Graph:          env.Name,
		Model:          p.Model,
		Randomizations: p.Randomizations,
		Seed:           p.Seed,
		Real:           real[:],
		Mean:           mean[:],
		Std:            std[:],
		Z:              z[:],
		Significance:   delta[:],
		Profile:        profile[:],
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	}, nil
}

// runProfile serves the paper's characteristic profile (Equation 2) as a
// projection of the Chung-Lu null_model stage with the same randomizations
// and seed: the two share one ensemble and one cache entry.
func runProfile(ctx context.Context, env *Env, st *Stage, p *api.ProfileRequest, exact *exactStore) (api.ProfileResult, bool, error) {
	start := time.Now()
	sig, cached, err := runNullModel(ctx, env, st, &api.NullModelParams{
		Model:          api.NullModelChungLu,
		Randomizations: p.Randomizations,
		Seed:           p.Seed,
		Workers:        p.Workers,
	}, exact)
	if err != nil {
		return api.ProfileResult{}, false, err
	}
	var prof cp.Profile
	copy(prof[:], sig.Profile)
	return api.ProfileResult{
		Graph:          env.Name,
		Randomizations: p.Randomizations,
		Seed:           p.Seed,
		Profile:        sig.Profile,
		Norm:           prof.Norm(),
		Cached:         cached,
		ElapsedMS:      float64(time.Since(start).Microseconds()) / 1000,
	}, cached, nil
}

// runRank computes motif-aware PageRank over the projected hyperedge graph.
func runRank(ctx context.Context, env *Env, p *api.RankParams) (api.RankResult, bool, error) {
	params := fmt.Sprintf("w=%s|d=%g|it=%d|k=%d", p.Weights, p.Damping, p.MaxIter, p.TopK)
	res, cached, err := serve(ctx, env, api.StageRank, params, false, func(context.Context) (api.RankResult, error) {
		start := time.Now()
		var weighting rank.Weighting
		switch p.Weights {
		case api.RankWeightMotif:
			weighting = rank.WeightMotif
		case api.RankWeightClosedMotif:
			weighting = rank.WeightClosedMotif
		default:
			weighting = rank.WeightOverlap
		}
		scores, err := rank.Scores(env.Graph, env.Proj(), rank.Config{
			Weights: weighting,
			Damping: p.Damping,
			MaxIter: p.MaxIter,
		})
		if err != nil {
			return api.RankResult{}, err
		}
		top := rank.Top(scores, p.TopK)
		entries := make([]api.RankEntry, len(top))
		for i, e := range top {
			entries[i] = api.RankEntry{Edge: e, Score: scores[e]}
		}
		return api.RankResult{
			Graph:     env.Name,
			Weights:   p.Weights,
			Damping:   p.Damping,
			Edges:     env.Graph.NumEdges(),
			Top:       entries,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
	res.Cached = cached
	return res, cached, err
}

// runAnomaly scores every hyperedge's deviation from the dataset's aggregate
// motif-participation distribution and returns the top-k.
func runAnomaly(ctx context.Context, env *Env, p *api.AnomalyParams) (api.AnomalyResult, bool, error) {
	res, cached, err := serve(ctx, env, api.StageAnomaly, fmt.Sprintf("k=%d", p.TopK), false, func(ctx context.Context) (api.AnomalyResult, error) {
		start := time.Now()
		scores, err := anomaly.Scores(ctx, env.Graph, env.Proj(), env.workers(p.Workers))
		if err != nil {
			return api.AnomalyResult{}, err
		}
		top := anomaly.Top(scores, p.TopK)
		entries := make([]api.AnomalyEntry, len(top))
		for i, s := range top {
			entries[i] = api.AnomalyEntry{
				Edge:          s.Edge,
				Deviation:     s.Deviation,
				Participation: s.Participation,
				Dominant:      s.Dominant,
			}
		}
		return api.AnomalyResult{
			Graph:     env.Name,
			Edges:     env.Graph.NumEdges(),
			Top:       entries,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
	res.Cached = cached
	return res, cached, err
}

// runCluster label-propagates over the h-motif co-participation graph and
// summarizes the partition.
func runCluster(ctx context.Context, env *Env, p *api.ClusterParams) (api.ClusterResult, bool, error) {
	params := fmt.Sprintf("closed=%t|minw=%d|it=%d|seed=%d|k=%d", p.ClosedOnly, p.MinWeight, p.MaxIter, p.Seed, p.TopK)
	res, cached, err := serve(ctx, env, api.StageCluster, params, false, func(context.Context) (api.ClusterResult, error) {
		start := time.Now()
		labels := cluster.Labels(env.Graph, env.Proj(), cluster.Config{
			ClosedOnly: p.ClosedOnly,
			MinWeight:  p.MinWeight,
			MaxIter:    p.MaxIter,
			Seed:       p.Seed,
		})
		var sizes []int
		singletons := 0
		for _, s := range cluster.Sizes(labels) {
			if s == 0 {
				continue
			}
			if s == 1 {
				singletons++
			}
			sizes = append(sizes, s)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
		clusters := len(sizes)
		if len(sizes) > p.TopK {
			sizes = sizes[:p.TopK]
		}
		return api.ClusterResult{
			Graph:      env.Name,
			Edges:      env.Graph.NumEdges(),
			Clusters:   clusters,
			Sizes:      sizes,
			Singletons: singletons,
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
	res.Cached = cached
	return res, cached, err
}

// runTemporal sweeps sliding windows over a timed graph, summarizing each
// window's census plus the drift series between consecutive windows.
func runTemporal(ctx context.Context, env *Env, p *api.TemporalParams) (api.TemporalResult, bool, error) {
	if env.Graph.NumEdges() > 0 {
		if !env.Graph.Timed() {
			return api.TemporalResult{}, false, temporal.ErrUntimed
		}
		lo, hi := env.Graph.TimeRange()
		if windows := (hi-lo)/p.Stride + 1; windows > maxTemporalWindows {
			return api.TemporalResult{}, false, fmt.Errorf("stride %d yields %d windows over time range [%d, %d], exceeding the cap of %d", p.Stride, windows, lo, hi, maxTemporalWindows)
		}
	}
	params := fmt.Sprintf("w=%d|s=%d", p.Width, p.Stride)
	res, cached, err := serve(ctx, env, api.StageTemporal, params, false, func(context.Context) (api.TemporalResult, error) {
		start := time.Now()
		windows, err := temporal.Sweep(env.Graph, temporal.Config{Width: p.Width, Stride: p.Stride})
		if err != nil {
			return api.TemporalResult{}, err
		}
		ws := make([]api.TemporalWindow, len(windows))
		for i := range windows {
			w := &windows[i]
			ws[i] = api.TemporalWindow{
				Start:        w.Start,
				End:          w.End,
				Edges:        w.Edges,
				Total:        w.Counts.Total(),
				OpenFraction: w.OpenFraction(),
			}
		}
		return api.TemporalResult{
			Graph:         env.Name,
			Windows:       ws,
			Drift:         temporal.Drift(windows),
			MostAnomalous: temporal.MostAnomalous(windows),
			ElapsedMS:     float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	})
	res.Cached = cached
	return res, cached, err
}
