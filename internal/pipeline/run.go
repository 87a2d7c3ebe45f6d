package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mochy/api"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/projection"
)

// Pool admits stage compute into the server's bounded job pool. Stages
// acquire a slot only around their compute (never across event emission), so
// a pipeline waiting on a saturated pool does not hold capacity.
type Pool interface {
	Acquire(ctx context.Context) error
	Release()
}

// Cache is the memo every stage result passes through, keyed by Key. It
// serves key's value from a cache, or runs compute and caches the value it
// returns. compute reports its cost, the compute time after pool admission,
// which weights the entry's eviction; randomized marks sampled estimates and
// ensemble-based results, which take the sampling TTL. cached reports
// whether the value came from the cache or from a concurrent caller's
// computation.
type Cache func(ctx context.Context, key string, randomized bool, compute func(ctx context.Context) (any, time.Duration, error)) (v any, cached bool, err error)

// Env binds a validated plan to one graph and the server's machinery.
type Env struct {
	Graph *hypergraph.Hypergraph
	// Proj returns the graph's projection, built on first use: count and
	// null-model stages never need it.
	Proj func() projection.Projector
	// Name is the graph's registered name, echoed in stage payloads.
	Name string
	// GraphID is the cache-identity prefix "name#generation": keys built
	// from it die with the generation.
	GraphID string
	// MaxWorkers caps per-stage worker parameters.
	MaxWorkers int
	// DefaultWorkers resolves a stage's unset (0) workers parameter; 0 falls
	// back to MaxWorkers. The server sets it to min(GOMAXPROCS, MaxWorkers).
	DefaultWorkers int

	Pool Pool
	// Cache memoizes every stage result. nil computes every stage directly,
	// so two identical stages of one plan each run.
	Cache  Cache
	Tracer *obs.Tracer
	// Events receives stage lifecycle and progress events; nil skips.
	Events func(ev api.JobEvent)

	// Count runs one count kernel on the bound graph. The caller holds a
	// pool slot, and caching is the Cache's.
	Count func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, error)
	// KernelStats receives the stats of every exact count a stage runs
	// itself, one per null-model copy, with the time its kernel started;
	// nil skips. Count reports its own.
	KernelStats func(ctx context.Context, stats counting.KernelStats, start time.Time)
}

// emit publishes one event if the env has a sink.
func (env *Env) emit(ev api.JobEvent) {
	if env.Events != nil {
		env.Events(ev)
	}
}

// workers clamps a stage's workers parameter to [1, MaxWorkers]. An unset
// parameter (0 or negative) resolves to DefaultWorkers when the env sets
// one, else MaxWorkers.
func (env *Env) workers(w int) int {
	if w < 1 {
		w = env.DefaultWorkers
		if w < 1 {
			w = env.MaxWorkers
		}
	}
	if w > env.MaxWorkers {
		return env.MaxWorkers
	}
	return w
}

// exactStore shares completed count stages' exact counts with dependent
// stages. Independent DAG branches run concurrently, so one branch may write
// while another reads; the mutex makes the map safe without imposing any
// ordering beyond the plan's own dependency edges.
type exactStore struct {
	mu sync.Mutex
	m  map[string]*counting.Counts
}

func (s *exactStore) get(id string) (*counting.Counts, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[id]
	return c, ok
}

func (s *exactStore) put(id string, c *counting.Counts) {
	s.mu.Lock()
	s.m[id] = c
	s.mu.Unlock()
}

// Run executes a validated plan against env's graph. Independent DAG
// branches fan out concurrently: every stage starts as soon as the stages it
// names in After have completed, and per-stage compute still passes through
// the server's bounded pool, so a wide plan gains wall-clock without
// exceeding the server's global compute budget. The result carries every
// stage's payload in the plan's topological order regardless of completion
// order; the first stage failure cancels the remaining stages and aborts the
// run with an error naming the stage.
func Run(ctx context.Context, env *Env, plan *Plan) (api.PipelineResult, error) {
	start := time.Now()
	n := len(plan.Stages)
	out := api.PipelineResult{Graph: env.Name, Stages: make([]api.StageResult, 0, n)}
	index := make(map[string]int, n)
	for i, st := range plan.Stages {
		index[st.ID] = i
	}
	// exact holds the exact counts produced by completed count stages, so a
	// dependent null_model stage reuses them even when the result cache is
	// disabled.
	exact := &exactStore{m: make(map[string]*counting.Counts, n)}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var (
		mu       sync.Mutex
		firstErr error
		results  = make([]*api.StageResult, n)
		done     = make([]chan struct{}, n) // closed when stage i succeeds
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel(err)
	}
	for i := range done {
		done[i] = make(chan struct{})
	}
	exec := func(ctx context.Context, i int, st *Stage) {
		defer wg.Done()
		for _, dep := range st.After {
			select {
			case <-done[index[dep]]:
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		env.emit(api.JobEvent{Type: api.EventStageStart, Stage: st.ID, Kind: st.Kind})
		sctx, span := env.Tracer.StartSpan(ctx, "stage."+st.Kind)
		span.SetAttr("stage", st.ID)
		t0 := time.Now()
		payload, counts, cached, err := runStage(sctx, env, st, exact)
		elapsed := time.Since(t0)
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			fail(fmt.Errorf("stage %q (%s): %w", st.ID, st.Kind, err))
			return
		}
		if cached {
			span.SetAttr("cached", "true")
		}
		span.End()
		raw, merr := json.Marshal(payload)
		if merr != nil {
			fail(fmt.Errorf("stage %q (%s): encode result: %v", st.ID, st.Kind, merr))
			return
		}
		ms := float64(elapsed.Microseconds()) / 1000
		mu.Lock()
		results[i] = &api.StageResult{ID: st.ID, Kind: st.Kind, Cached: cached, ElapsedMS: ms, Result: raw}
		mu.Unlock()
		if counts != nil {
			exact.put(st.ID, counts)
		}
		env.emit(api.JobEvent{Type: api.EventStageDone, Stage: st.ID, Kind: st.Kind, Cached: cached, ElapsedMS: ms})
		close(done[i])
	}
	wg.Add(n)
	for i := 1; i < n; i++ {
		go exec(runCtx, i, plan.Stages[i])
	}
	// The first stage in topological order depends on nothing, so it runs
	// on the caller's goroutine: a one-stage plan spawns no goroutine.
	exec(runCtx, 0, plan.Stages[0])
	wg.Wait()
	// Completed stages report in topological order whatever order branches
	// finished in.
	for _, r := range results {
		if r != nil {
			out.Stages = append(out.Stages, *r)
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	// No stage failed but the parent context may have been cancelled between
	// dependency waits (every stage returned silently in that case).
	if err := ctx.Err(); err != nil && len(out.Stages) < n {
		return out, context.Cause(ctx)
	}
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return out, nil
}

// runStage dispatches one stage. It returns the wire payload, the exact
// counts when the stage produced them (for dependents), and whether the
// result came from a cache.
func runStage(ctx context.Context, env *Env, st *Stage, exact *exactStore) (payload any, counts *counting.Counts, cached bool, err error) {
	switch p := st.Params.(type) {
	case *api.CountRequest:
		return runCountStage(ctx, env, st, p)
	case *api.NullModelParams:
		r, cached, err := runNullModel(ctx, env, st, p, exact)
		return r, nil, cached, err
	case *api.RankParams:
		r, cached, err := runRank(ctx, env, p)
		return r, nil, cached, err
	case *api.AnomalyParams:
		r, cached, err := runAnomaly(ctx, env, p)
		return r, nil, cached, err
	case *api.ClusterParams:
		r, cached, err := runCluster(ctx, env, p)
		return r, nil, cached, err
	case *api.TemporalParams:
		r, cached, err := runTemporal(ctx, env, p)
		return r, nil, cached, err
	case *api.ProfileRequest:
		r, cached, err := runProfile(ctx, env, st, p, exact)
		return r, nil, cached, err
	default:
		return nil, nil, false, fmt.Errorf("unhandled params type %T", st.Params)
	}
}

// runCountStage serves a count stage, streaming throttled progress events
// stamped with the stage id.
func runCountStage(ctx context.Context, env *Env, st *Stage, p *api.CountRequest) (any, *counting.Counts, bool, error) {
	start := time.Now()
	var progress func(done, total int)
	if p.Algorithm == api.AlgoExact && env.Events != nil {
		progress = throttle(env.Graph.NumEdges(), func(done, total int) {
			env.emit(api.JobEvent{Type: api.EventProgress, Stage: st.ID, Done: done, Total: total})
		})
	}
	c, cached, err := count(ctx, env, p, progress)
	if err != nil {
		return nil, nil, false, err
	}
	res := api.CountResult{
		Graph:        env.Name,
		Algorithm:    p.Algorithm,
		Counts:       c[:],
		Total:        c.Total(),
		OpenFraction: c.OpenFraction(),
		Cached:       cached,
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	var counts *counting.Counts
	if p.Algorithm == api.AlgoExact {
		counts = &c
	}
	return res, counts, cached, nil
}

// count serves one count of the bound graph through the memo. Only the
// sampling budget and seed join the algorithm in the key, so an exact
// count's params are the algorithm name alone: that is the entry snapshots
// and recovery seed. Estimates take the sampling TTL; exact counts never
// expire.
func count(ctx context.Context, env *Env, p *api.CountRequest, progress func(done, total int)) (counting.Counts, bool, error) {
	params := p.Algorithm
	if p.Algorithm != api.AlgoExact {
		params = fmt.Sprintf("%s|s=%d|seed=%d", p.Algorithm, p.Samples, p.Seed)
	}
	workers := env.workers(p.Workers)
	return serve(ctx, env, api.StageCount, params, p.Algorithm != api.AlgoExact, func(ctx context.Context) (counting.Counts, error) {
		return env.Count(ctx, p.Algorithm, p.Samples, p.Seed, workers, progress)
	})
}

// throttle is the shared ~1%-granularity progress limiter: huge enumerations
// must not emit one event per stride, and progress never goes backwards (the
// mutex makes decide-and-emit atomic across kernel workers).
func throttle(total int, emit func(done, total int)) func(done, total int) {
	step := total / 100
	if step < 1 {
		step = 1
	}
	last := 0
	var mu sync.Mutex
	return func(done, tot int) {
		mu.Lock()
		if done >= last+step && done < tot {
			last = done
			emit(done, tot)
		}
		mu.Unlock()
	}
}
