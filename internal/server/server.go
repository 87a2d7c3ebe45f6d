package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mochy/api"
	counting "mochy/internal/mochy"
	"mochy/internal/obs"
	"mochy/internal/pipeline"
	"mochy/internal/server/live"
	"mochy/internal/shardmap"
	"mochy/internal/store"
)

// maxLiveGraphs caps how many live graphs may exist at once; each one pins
// a dynamic counter and an apply-loop goroutine.
const maxLiveGraphs = 4096

// snapshotSeedCost is the recompute cost recorded for exact counts seeded
// into the cache from a live graph's incremental counter. Recomputing one
// means running MoCHy-E from scratch, so under eviction pressure these
// entries must outlive cheap sampling estimates whose measured cost is
// milliseconds.
const snapshotSeedCost = time.Hour

// Config parameterizes a Server.
type Config struct {
	// CacheSize is the capacity of the LRU result cache in entries.
	// 0 selects the default; negative disables caching.
	CacheSize int
	// MaxConcurrent bounds how many counting jobs run at once.
	// 0 selects GOMAXPROCS.
	MaxConcurrent int
	// MaxWorkersPerJob caps the per-request workers parameter.
	// 0 selects GOMAXPROCS.
	MaxWorkersPerJob int
	// SamplingTTL bounds how long randomized results (edge-sample and
	// wedge-sample counts, null-model ensembles and the profiles projected
	// from them) stay cached: they should age out instead of pinning LRU
	// capacity that exact results need. 0 selects the default; negative
	// stores them without expiry. Exact counts never expire.
	SamplingTTL time.Duration
	// QueueBudget is the backpressure threshold: once the job pool's queue
	// has been continuously non-empty for longer than this, count and
	// profile endpoints answer 429 with Retry-After instead of queueing
	// more work unboundedly. 0 selects the default; negative disables
	// backpressure.
	QueueBudget time.Duration
	// PipelineMaxStages caps how many stages one pipeline plan may declare,
	// so a single plan cannot monopolize the job pool. 0 selects the
	// default (pipeline.DefaultMaxStages).
	PipelineMaxStages int
	// Store, when non-nil, makes the server durable: uploads become
	// segment files, live mutations append to per-graph write-ahead logs
	// before they are acknowledged, and Recover rebuilds everything on
	// boot. The server takes ownership and closes it in Close. nil keeps
	// the pre-durability in-memory behavior.
	Store *store.Store
	// CheckpointWALBytes, when positive and a Store is configured, makes
	// checkpointing automatic: after a live mutation pushes a graph's WAL
	// past this many bytes, a background checkpoint folds the log into a
	// fresh base segment — long-running daemons keep their WALs (and their
	// next recovery) bounded without a manual POST /v1/admin/checkpoint.
	// <= 0 leaves checkpointing manual-only.
	CheckpointWALBytes int64
	// Logger receives the server's structured logs (job failures,
	// auto-checkpoint outcomes, graph lifecycle). nil discards them —
	// embedded servers and tests stay silent by default; mochyd wires one.
	Logger *slog.Logger
	// TraceBuffer is the flight recorder's capacity: how many finished
	// spans GET /v1/admin/traces retains. 0 selects the default; negative
	// disables span retention. Trace-id propagation (the X-Mochy-Trace
	// header, job stamping, log correlation) and span timing
	// (mochyd_span_duration_seconds) are always on regardless.
	TraceBuffer int
}

// DefaultConfig returns the configuration mochyd starts with.
func DefaultConfig() Config {
	return Config{
		CacheSize:         256,
		MaxConcurrent:     runtime.GOMAXPROCS(0),
		MaxWorkersPerJob:  runtime.GOMAXPROCS(0),
		SamplingTTL:       15 * time.Minute,
		QueueBudget:       10 * time.Second,
		TraceBuffer:       512,
		PipelineMaxStages: pipeline.DefaultMaxStages,
	}
}

// Server is the mochyd engine: a graph registry, a result cache, a bounded
// pool of counting jobs, and an asynchronous job store, exposed over a
// versioned HTTP API. It implements http.Handler; requests are safe to
// serve concurrently.
type Server struct {
	registry *Registry
	liveReg  *live.Registry
	cache    *Cache
	flight   *flightGroup
	pool     *Pool
	jobs     *jobStore
	store    *store.Store // nil when running without persistence
	cfg      Config
	start    time.Time
	router   *router
	// mets owns every /v1/metrics family; tracer is the span flight
	// recorder behind /v1/admin/traces; logger receives structured logs
	// (never nil — a nop logger when the config left it unset).
	mets   *serverMetrics
	tracer *obs.Tracer
	logger *slog.Logger
	// persistErrs counts best-effort persistence failures (exact-count
	// sidecar writes); hard failures surface on the request instead.
	persistErrs *obs.Counter
	// ckptInflight marks graphs with an automatic checkpoint in progress,
	// so a burst of mutations past the WAL threshold schedules one fold,
	// not one per request.
	ckptInflight       *shardmap.Map[struct{}]
	autoCheckpoints    *obs.Counter
	autoCheckpointErrs *obs.Counter
	// stopc ends the background cache sweeper; closed once by Close.
	stopc     chan struct{}
	closeOnce sync.Once
	// baseCtx is the server's lifetime context — the one legitimate
	// context root below main. Asynchronous jobs run under it (not under
	// the HTTP request that started them, which ends at the 202), so
	// Close cancels them instead of orphaning them.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// bg tracks the background goroutines Close must wait for: the cache
	// sweeper and in-flight automatic checkpoints.
	bg sync.WaitGroup
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.CacheSize == 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = def.MaxConcurrent
	}
	if cfg.MaxWorkersPerJob <= 0 {
		cfg.MaxWorkersPerJob = def.MaxWorkersPerJob
	}
	if cfg.SamplingTTL == 0 {
		cfg.SamplingTTL = def.SamplingTTL
	}
	if cfg.QueueBudget == 0 {
		cfg.QueueBudget = def.QueueBudget
	}
	if cfg.TraceBuffer == 0 {
		cfg.TraceBuffer = def.TraceBuffer
	}
	if cfg.PipelineMaxStages <= 0 {
		cfg.PipelineMaxStages = def.PipelineMaxStages
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		registry:     NewRegistry(),
		liveReg:      live.NewRegistry(maxGraphNodes, maxLiveGraphs),
		cache:        NewCache(cfg.CacheSize),
		flight:       newFlightGroup(),
		pool:         NewPool(cfg.MaxConcurrent),
		jobs:         newJobStore(),
		store:        cfg.Store,
		cfg:          cfg,
		start:        time.Now(),
		logger:       cfg.Logger,
		mets:         newServerMetrics(cfg.Store != nil),
		tracer:       obs.NewTracer(cfg.TraceBuffer),
		ckptInflight: shardmap.NewMap[struct{}](0),
		stopc:        make(chan struct{}),
	}
	s.mets.reg.OnScrape(s.collectMetrics)
	s.tracer.CountSpans(s.mets.traceSpans)
	s.tracer.TimeSpans(s.mets.spanDuration)
	s.persistErrs = s.mets.persistErrs
	s.autoCheckpoints = s.mets.autoCheckpoints
	s.autoCheckpointErrs = s.mets.autoCheckpointErr
	//lint:ignore ctxflow the server's lifetime context is the one legitimate root below main: jobs outlive the requests that start them and must be cancelled by Close, not by a client disconnect
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if s.store != nil {
		// Every live graph created from here on gets a write-ahead log
		// before it can accept its first mutation.
		s.liveReg.SetJournalFactory(func(name string) (live.Journal, error) {
			return s.store.CreateLive(name)
		})
		// The store shares the server's registry (WAL fsync and checkpoint
		// latency histograms) and logger. Both are wired before any request
		// or recovery can drive the store.
		s.store.Instrument(s.mets.reg)
		s.store.SetLogger(s.logger)
	}
	s.liveReg.SetLogger(s.logger)
	s.router = s.buildRouter()
	// The sweeper only exists for TTL'd entries, which only the sampling
	// TTL produces; servers that cannot accumulate them (cache disabled, or
	// TTLs off) start no goroutine, so constructing one without Close stays
	// leak-free as it was pre-sweeper.
	if cfg.CacheSize > 0 && cfg.SamplingTTL > 0 {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			s.sweepLoop()
		}()
	}
	return s
}

// cacheSweepInterval is how often the background sweeper collects expired
// TTL entries across the cache partitions.
const cacheSweepInterval = time.Minute

// sweepLoop periodically sweeps expired entries out of every cache
// partition until the server closes, so TTL'd sampling results release
// capacity on schedule instead of squatting until a Get or eviction scan
// happens to find them.
func (s *Server) sweepLoop() {
	t := time.NewTicker(cacheSweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.cache.Sweep()
		case <-s.stopc:
			return
		}
	}
}

// maybeAutoCheckpoint schedules a background checkpoint of g when automatic
// checkpointing is configured and g's WAL has outgrown the threshold. At
// most one checkpoint per graph runs at a time; overlapping triggers are
// dropped (the running fold already covers their records). Failures are
// left for the next trigger or a manual checkpoint — the WAL is still the
// durable truth either way.
func (s *Server) maybeAutoCheckpoint(g *live.Graph) {
	limit := s.cfg.CheckpointWALBytes
	if s.store == nil || limit <= 0 || g == nil {
		return
	}
	jrn := g.Journal()
	if jrn == nil || jrn.Size() < limit {
		return
	}
	name := g.Name()
	if !s.ckptInflight.SetIfAbsent(name, struct{}{}) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.ckptInflight.Delete(name)
		st, replayFrom, err := g.Checkpoint()
		if err != nil {
			// A closed graph (deleted mid-trigger) is the normal way a
			// scheduled fold becomes moot, not a persistence failure.
			if !errors.Is(err, live.ErrClosed) {
				s.autoCheckpointErrs.Inc()
				s.logger.Warn("auto-checkpoint failed", "graph", name, "error", err.Error())
			}
			return
		}
		if _, err := s.store.CheckpointLive(name, jrn, st, replayFrom); err != nil {
			// Surfaced on /v1/metrics: a WAL that keeps growing because
			// every background fold fails (disk full, permissions) must be
			// visible, not just quietly non-advancing. Routine outcomes —
			// the daemon shutting down, or the graph deleted/recreated
			// mid-fold — are not persistence failures.
			if !errors.Is(err, store.ErrClosed) && !errors.Is(err, store.ErrSuperseded) {
				s.autoCheckpointErrs.Inc()
				s.logger.Warn("auto-checkpoint failed", "graph", name, "error", err.Error())
			}
			return
		}
		s.autoCheckpoints.Inc()
		s.logger.Info("auto-checkpoint complete", "graph", name, "replay_from", replayFrom)
	}()
}

// Recover replays the configured store into the registries: immutable
// graphs load with their persisted exact counts pre-seeded into the result
// cache, and live graphs rebuild from base segment + WAL tail with their
// incremental counters restored in O(structure + delta) — no motif
// re-enumeration. Call it once, before serving traffic; without a store it
// is a no-op.
func (s *Server) Recover() (store.RecoveryStats, error) {
	if s.store == nil {
		return store.RecoveryStats{}, nil
	}
	rec, err := s.store.Recover()
	if err != nil {
		return store.RecoveryStats{}, err
	}
	for _, rg := range rec.Graphs {
		e, _ := s.registry.Load(rg.Name, rg.Graph)
		s.store.BindGraphGen(rg.Name, e.Gen)
		if rg.Counts != nil {
			// The persisted exact count seeds the cache exactly like a
			// snapshot would: high eviction cost, no expiry.
			s.cache.PutCost(exactKey(e), *rg.Counts, 0, snapshotSeedCost)
		}
	}
	for _, rl := range rec.Live {
		if _, err := s.liveReg.Restore(rl.Name, rl.Base, rl.Tail, rl.Journal); err != nil {
			return store.RecoveryStats{}, err
		}
	}
	return rec.Stats, nil
}

// buildRouter assembles the route table: every endpoint lives under /v1.
func (s *Server) buildRouter() *router {
	rt := newRouter(s.mets, s.tracer)

	// v1: service meta.
	rt.handle(s.mets, http.MethodGet, "/v1/healthz", s.handleHealthz)
	rt.handle(s.mets, http.MethodGet, "/v1/metrics", s.handleMetrics)

	// v1: immutable graph transport (content negotiated).
	rt.handle(s.mets, http.MethodGet, "/v1/graphs", s.handleList)
	rt.handle(s.mets, http.MethodPut, "/v1/graphs/{name}", s.handleUploadGraph)
	rt.handle(s.mets, http.MethodGet, "/v1/graphs/{name}", s.handleDownloadGraph)
	rt.handle(s.mets, http.MethodDelete, "/v1/graphs/{name}", s.handleDeleteGraph)
	rt.handle(s.mets, http.MethodGet, "/v1/graphs/{name}/stats", s.handleStats)

	// v1: asynchronous job protocol.
	rt.handle(s.mets, http.MethodPost, "/v1/graphs/{name}/count", s.handleStartCount)
	rt.handle(s.mets, http.MethodPost, "/v1/graphs/{name}/profile", s.handleStartProfile)
	rt.handle(s.mets, http.MethodPost, "/v1/graphs/{name}/pipeline", s.handleStartPipeline)
	rt.handle(s.mets, http.MethodGet, "/v1/jobs", s.handleJobs)
	rt.handle(s.mets, http.MethodGet, "/v1/jobs/{id}", s.handleJob)
	rt.handle(s.mets, http.MethodGet, "/v1/jobs/{id}/events", s.handleJobEvents)

	// v1: persistence administration and the trace flight recorder.
	rt.handle(s.mets, http.MethodGet, "/v1/admin/healthz", s.handleReadyz)
	rt.handle(s.mets, http.MethodPost, "/v1/admin/checkpoint", s.handleCheckpoint)
	rt.handle(s.mets, http.MethodGet, "/v1/admin/store", s.handleStoreStatus)
	rt.handle(s.mets, http.MethodGet, "/v1/admin/traces", s.handleTraces)

	// v1: live graphs and stream ingest.
	rt.handle(s.mets, http.MethodPost, "/v1/graphs/{name}/edges", s.handleInsertEdges)
	rt.handle(s.mets, http.MethodGet, "/v1/graphs/{name}/edges", s.handleListEdges)
	rt.handle(s.mets, http.MethodDelete, "/v1/graphs/{name}/edges/{id}", s.handleDeleteEdge)
	rt.handle(s.mets, http.MethodPatch, "/v1/graphs/{name}", s.handlePatchGraph)
	rt.handle(s.mets, http.MethodGet, "/v1/graphs/{name}/counts", s.handleLiveCounts)
	rt.handle(s.mets, http.MethodPost, "/v1/graphs/{name}/snapshot", s.handleSnapshot)
	rt.handle(s.mets, http.MethodPost, "/v1/streams/{name}", s.handleStreamIngest)
	rt.handle(s.mets, http.MethodGet, "/v1/streams/{name}", s.handleStreamGet)

	return rt
}

// Registry exposes the graph registry (used by mochyd to preload graphs).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the server's metrics registry, so embedders (benchmark
// harnesses, a future in-process scraper) can register their own families
// next to the built-in ones or render the exposition without an HTTP round
// trip.
func (s *Server) Metrics() *obs.Registry { return s.mets.reg }

// Close stops admitting new counting jobs, cancels the server's lifetime
// context (ending asynchronous jobs), waits for the background sweeper
// and any in-flight automatic checkpoint, shuts down every live graph's
// apply loop, and — when persistence is configured — flushes every WAL
// buffer and the manifest to disk. The store's flush error is returned:
// it is the difference between "every acknowledged mutation is on disk"
// and silent data loss at exit. Callers drain HTTP traffic first (see
// cmd/mochyd). Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.stopc)
		s.baseCancel()
	})
	s.pool.Close()
	// Background checkpoints must finish (or observe the closed graph)
	// before the store flushes and closes beneath them.
	s.bg.Wait()
	s.liveReg.Close()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// ServeHTTP dispatches through the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.router.ServeHTTP(w, r)
}

// exactKey is the cache key of e's exact counts: the pipeline count stage's
// entry, which snapshots and recovery seed.
func exactKey(e *Entry) string {
	return pipeline.Key(e.ID(), api.StageCount, api.AlgoExact)
}

// graphKeyGen extracts the generation from a cache key belonging to graph
// name, reporting false for keys of other graphs. Every key is
// "<name>#<gen>|<kind>|<params>" (pipeline.Key): requiring the segment after
// name+"#" to be pure digits keeps a graph named "a" from matching keys of a
// graph named "a#1".
func graphKeyGen(key, name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(key, name+"#")
	if !ok {
		return 0, false
	}
	numStr, _, _ := strings.Cut(rest, "|")
	gen, err := strconv.ParseUint(numStr, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// purgeGraph drops every cached result of every generation of name, so a
// deleted graph's entries stop occupying LRU capacity immediately instead
// of lingering until eviction.
func (s *Server) purgeGraph(name string) int {
	return s.cache.Purge(func(key string) bool {
		_, ok := graphKeyGen(key, name)
		return ok
	})
}

// purgeStaleGenerations drops cached results of name whose generation is
// not keep — the in-place replacement path for re-uploads and live-graph
// snapshots, where generation-keyed entries of the replaced graph can never
// be read again.
func (s *Server) purgeStaleGenerations(name string, keep uint64) int {
	return s.cache.Purge(func(key string) bool {
		gen, ok := graphKeyGen(key, name)
		return ok && gen != keep
	})
}

// samplingTTL resolves the configured TTL for sampling-based cache entries;
// 0 means store without expiry.
func (s *Server) samplingTTL() time.Duration {
	if s.cfg.SamplingTTL < 0 {
		return 0
	}
	return s.cfg.SamplingTTL
}

// putIfCurrent caches a computed result only while e is still the live
// generation of its name. A long count finishing after its graph was
// deleted or replaced would otherwise re-insert an unreadable entry right
// after the purge removed its generation. cost feeds the cache's
// cost-weighted eviction: cheap results go first under pressure.
func (s *Server) putIfCurrent(e *Entry, key string, val any, ttl, cost time.Duration) {
	if cur, ok := s.registry.Get(e.Name); !ok || cur.Gen != e.Gen {
		return
	}
	s.cache.PutCost(key, val, ttl, cost)
}

// overBudget reports whether the job pool's queue has outlived the
// configured backpressure budget, meaning new count/profile work should be
// rejected with 429 rather than enqueued.
func (s *Server) overBudget() bool {
	return s.cfg.QueueBudget > 0 && s.pool.SaturatedFor() > s.cfg.QueueBudget
}

// Supported counting algorithms (wire names shared with mochy/api).
const (
	algoExact = "exact"
	algoEdge  = "edge-sample"
	algoWedge = "wedge-sample"
)

// runCount runs one count kernel on e: the pipeline's count hook, called
// under a pool slot with caching left to the memo. It records the kernel
// spans and metrics, and the projection span when this call built the
// projection, and persists a fresh exact count next to the graph's segment.
func (s *Server) runCount(ctx context.Context, e *Entry, algo string, samples int, seed int64, workers int, progress func(done, total int)) (c counting.Counts, err error) {
	p := e.projection(func(start, end time.Time) { s.tracer.RecordSpan(ctx, "projection.build", start, end) })
	t0 := time.Now()
	kctx, kspan := s.tracer.StartSpan(ctx, "kernel."+algo)
	switch algo {
	case algoExact:
		if progress != nil {
			progress = s.stagedProgress(kctx, progress)
		}
		var stats counting.KernelStats
		c, stats, err = counting.CountExactOpts(kctx, e.Graph, p, counting.Options{Workers: workers, Progress: progress})
		s.recordKernelStats(kctx, stats, t0)
	case algoEdge:
		c, err = counting.CountEdgeSamplesCtx(kctx, e.Graph, p, samples, seed, workers)
	case algoWedge:
		c, err = counting.CountWedgeSamplesCtx(kctx, e.Graph, p, p, samples, seed, workers)
	default:
		kspan.End()
		return counting.Counts{}, fmt.Errorf("unknown algorithm %q (want %s, %s or %s)", algo, algoExact, algoEdge, algoWedge)
	}
	if err != nil {
		kspan.SetAttr("error", err.Error())
		kspan.End()
		return counting.Counts{}, err
	}
	kspan.SetAttr("workers", strconv.Itoa(workers))
	kspan.End()
	if algo == algoExact {
		s.persistCounts(ctx, e, c)
	}
	return c, nil
}

// persistCounts writes a freshly computed exact count next to e's segment,
// so the next boot seeds the cache instead of recounting — the most
// expensive thing the server makes. Best-effort: the count itself is
// already correct, and it is skipped once e is no longer current.
func (s *Server) persistCounts(ctx context.Context, e *Entry, c counting.Counts) {
	if s.store == nil {
		return
	}
	if cur, ok := s.registry.Get(e.Name); !ok || cur.Gen != e.Gen {
		return
	}
	p0 := time.Now()
	if err := s.store.PutCounts(e.Name, e.Gen, c); err != nil {
		s.persistErrs.Inc()
		s.logger.WarnContext(ctx, "persist counts failed", "graph", e.Name, "error", err.Error())
		s.tracer.RecordSpan(ctx, "persist.counts", p0, time.Now(), obs.Attr{Key: "error", Value: err.Error()})
		return
	}
	s.tracer.RecordSpan(ctx, "persist.counts", p0, time.Now())
}

// recordKernelStats publishes one exact-count kernel run's scheduling stats:
// the mochyd_kernel_* families, plus retroactive per-phase spans (scheduler
// setup, enumeration, merge) reconstructed from the phase durations — the
// phases run back-to-back from start, so their boundaries are the running
// sum.
func (s *Server) recordKernelStats(ctx context.Context, stats counting.KernelStats, start time.Time) {
	s.mets.kernelWorkers.SetInt(int64(stats.Workers))
	s.mets.kernelChunks.Add(uint64(stats.Chunks))
	if stats.Steals > 0 {
		s.mets.kernelSteals.Add(uint64(stats.Steals))
	}
	s.mets.kernelImbalance.Set(stats.Imbalance)
	setupEnd := start.Add(stats.Setup)
	enumEnd := setupEnd.Add(stats.Enumerate)
	s.tracer.RecordSpan(ctx, "kernel.setup", start, setupEnd,
		obs.Attr{Key: "chunks", Value: strconv.Itoa(stats.Chunks)},
		obs.Attr{Key: "cost_aware", Value: strconv.FormatBool(stats.CostAware)})
	s.tracer.RecordSpan(ctx, "kernel.enumerate", setupEnd, enumEnd,
		obs.Attr{Key: "workers", Value: strconv.Itoa(stats.Workers)},
		obs.Attr{Key: "steals", Value: strconv.FormatInt(stats.Steals, 10)},
		obs.Attr{Key: "imbalance", Value: strconv.FormatFloat(stats.Imbalance, 'f', 3, 64)})
	s.tracer.RecordSpan(ctx, "kernel.merge", enumEnd, enumEnd.Add(stats.Merge))
}

// stagedProgress wraps an exact count's progress callback to leave the
// enumeration's quartile boundaries behind as retroactive spans: "which
// quarter of the anchor space was slow" is visible per trace without paying
// a span per progress callback. The kernel calls Options.Progress from
// every worker at once, so the mutex guards the quartile state; it only
// runs on traced exact counts that already report progress.
func (s *Server) stagedProgress(ctx context.Context, inner func(done, total int)) func(done, total int) {
	if obs.TraceID(ctx) == "" {
		return inner
	}
	var mu sync.Mutex
	stage := 1
	last := time.Now()
	return func(done, total int) {
		inner(done, total)
		mu.Lock()
		for stage <= 4 && total > 0 && done*4 >= total*stage {
			now := time.Now()
			s.tracer.RecordSpan(ctx, fmt.Sprintf("enumerate.q%d", stage), last, now,
				obs.Attr{Key: "done", Value: strconv.Itoa(done)},
				obs.Attr{Key: "total", Value: strconv.Itoa(total)})
			last = now
			stage++
		}
		mu.Unlock()
	}
}
