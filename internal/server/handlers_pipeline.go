package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"mochy/api"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/pipeline"
	"mochy/internal/projection"
)

// handleStartPipeline serves POST /v1/graphs/{name}/pipeline: the declarative
// multi-stage analytics plan. The whole plan is validated (stage kinds,
// dependency acyclicity, per-stage parameters, the configured stage cap)
// before the 202, so a bad plan is a 400 here, never a failed job.
func (s *Server) handleStartPipeline(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	var req api.PipelineRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	plan, err := pipeline.Parse(&req, s.cfg.PipelineMaxStages)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid plan: %v", err)
		return
	}
	s.startJob(w, r, e, api.JobKindPipeline, plan)
}

// startJob admits a validated plan as an asynchronous job of kind and
// answers 202 with the job resource; past the backpressure budget it answers
// 429 instead. Count, profile and pipeline jobs all start here.
func (s *Server) startJob(w http.ResponseWriter, r *http.Request, e *Entry, kind string, plan *pipeline.Plan) {
	if s.overBudget() {
		s.writeBackpressure(w)
		return
	}
	j := s.jobs.create(kind, e.Name, obs.TraceID(r.Context()))
	// Jobs outlive the request that starts them (the 202 returns now), so
	// they run under the server's lifetime context, not r.Context() — but
	// they inherit the request's trace identity, so the job's spans and
	// logs join the trace that started it.
	go s.runJob(obs.InheritTrace(s.baseCtx, r.Context()), j, e, plan)
	s.writeJob(w, http.StatusAccepted, j)
}

// runJob is the one job runner. A pipeline job publishes every stage event
// and finishes with the full PipelineResult or the first failing stage's
// error. A count or profile job runs a one-stage plan: it forwards only that
// stage's progress events, without the stage stamp, and finishes with the
// stage's payload alone, so its event stream stays progress-then-result.
func (s *Server) runJob(ctx context.Context, j *job, e *Entry, plan *pipeline.Plan) {
	ctx, span := s.tracer.StartSpan(ctx, "job."+j.kind)
	span.SetAttr("job", j.id)
	span.SetAttr("graph", e.Name)
	span.SetAttr("stages", strconv.Itoa(len(plan.Stages)))
	j.setRunning(s.jobs.now())
	env := s.pipelineEnv(e)
	env.Events = j.publish
	single := j.kind != api.JobKindPipeline
	if single {
		env.Events = func(ev api.JobEvent) {
			if ev.Type == api.EventProgress {
				ev.Stage = ""
				j.publish(ev)
			}
		}
	}
	res, err := pipeline.Run(ctx, env, plan)
	var out any = res
	if err != nil {
		if inner := errors.Unwrap(err); single && inner != nil {
			err = inner // the stage is the job: drop the stage prefix
		}
		s.jobs.failed.Add(1)
		span.SetAttr("error", err.Error())
		s.logger.WarnContext(ctx, "job failed", "job", j.id, "kind", j.kind, "graph", e.Name, "error", err.Error())
	} else {
		s.jobs.finished.Add(1)
		if single {
			out = res.Stages[0].Result
		}
	}
	// Ended before the job turns terminal, so a client that sees it finish
	// also sees its job.<kind> duration on /v1/metrics.
	span.End()
	j.finish(out, err, s.jobs.now())
}

// pipelineEnv binds the executor to one graph entry and this server's pool,
// result memo and tracer.
func (s *Server) pipelineEnv(e *Entry) *pipeline.Env {
	return &pipeline.Env{
		Graph:      e.Graph,
		Proj:       func() projection.Projector { return e.Projection() },
		Name:       e.Name,
		GraphID:    e.ID(),
		MaxWorkers: s.cfg.MaxWorkersPerJob,
		// A stage that leaves workers unset gets min(GOMAXPROCS,
		// MaxWorkersPerJob): the scheduler cannot run more kernel goroutines
		// than GOMAXPROCS in parallel, so more would only add overhead.
		DefaultWorkers: min(runtime.GOMAXPROCS(0), s.cfg.MaxWorkersPerJob),
		Pool:           s.pool,
		Cache:          s.memo(e),
		Tracer:         s.tracer,
		Count: func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, error) {
			return s.runCount(ctx, e, algo, samples, seed, workers, progress)
		},
		KernelStats: s.recordKernelStats,
	}
}

// memo is the Cache hook of every stage run on e. It serves a key from the
// result cache; on a miss it runs compute once among concurrent callers of
// the same key. That computation is detached from the job that started it:
// one client going away must neither fail the collapsed waiters nor waste a
// result every later query would reuse. It runs under the server's lifetime
// context (keeping the leader's trace identity), so Close cancels it. The
// result is cached only while e is still its graph's current generation,
// weighted by compute's post-admission cost; estimates and ensembles also
// take the sampling TTL. Only the leader of a collapsed flight observes
// progress.
func (s *Server) memo(e *Entry) pipeline.Cache {
	return func(ctx context.Context, key string, randomized bool, compute func(context.Context) (any, time.Duration, error)) (any, bool, error) {
		if v, ok := s.cache.Get(key); ok {
			return v, true, nil
		}
		dctx := obs.InheritTrace(s.baseCtx, ctx)
		v, err, shared := s.flight.Do(key, func() (any, error) {
			v, cost, err := compute(dctx)
			if err != nil {
				return nil, err
			}
			ttl := time.Duration(0)
			if randomized {
				ttl = s.samplingTTL()
			}
			cw0 := time.Now()
			s.putIfCurrent(e, key, v, ttl, cost)
			s.tracer.RecordSpan(dctx, "cache.write", cw0, time.Now())
			return v, nil
		})
		return v, shared, err
	}
}
