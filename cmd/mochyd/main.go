// Command mochyd serves the MoCHy engine over a versioned HTTP API to many
// concurrent clients. It holds a registry of named immutable hypergraphs
// (uploaded once, shared across requests), a registry of live graphs whose
// exact h-motif counts stay current under hyperedge insertions and
// deletions, an LRU cache of count and profile results with cost-weighted
// eviction, a bounded pool of counting jobs with queue backpressure, an
// asynchronous job store, and a declarative pipeline engine that chains the
// analytics library — null-model significance, motif-aware PageRank, anomaly
// scoring, clustering, temporal evolution — into multi-stage jobs
// (-pipeline-max-stages caps plan size).
//
// Go programs should use the typed SDK in mochy/client rather than
// hand-rolling HTTP.
//
// Usage:
//
//	mochyd [-addr :8080] [-cache 256] [-max-concurrent N] [-max-workers N]
//	       [-sampling-ttl 15m] [-queue-budget 10s] [-data-dir DIR]
//	       [-checkpoint-wal-bytes N] [-debug-addr ADDR] [-load name=path ...]
//	       [-log-format json|text] [-trace-buffer N] [-pipeline-max-stages N]
//
// With -data-dir, mochyd is durable: uploaded graphs persist as binary
// segment files, live-graph mutations append to per-graph write-ahead logs
// (group-committed fsync) before they are acknowledged, and on boot the
// same flag replays manifest → segments → WAL tails so graphs, live
// counts, and cached exact counts all survive a crash or restart.
// POST /v1/admin/checkpoint compacts a long WAL into a fresh base segment;
// GET /v1/admin/store reports the store's footprint. With
// -checkpoint-wal-bytes, that compaction is automatic: a live graph whose
// WAL outgrows the threshold is checkpointed in the background, keeping
// long-running daemons' logs (and their next recovery) bounded.
//
// Observability: logs are structured (log/slog; -log-format picks JSON or
// logfmt text on stderr), GET /v1/metrics is a Prometheus text exposition
// from a single typed registry, and every request is traced — mochyd mints
// or adopts an X-Mochy-Trace id, echoes it on the response, stamps it on
// job events, correlates log lines with it, and records per-request span
// trees in a fixed ring buffer served by GET /v1/admin/traces.
// -trace-buffer sizes that ring (0 disables span retention; id propagation
// and the mochyd_span_duration_seconds histogram stay on).
//
// -debug-addr starts a second HTTP listener serving net/http/pprof under
// /debug/pprof/ for contention and profile diagnosis. It is a separate
// server on a separate port — the public API mux never mounts the debug
// handlers — so operators can firewall it independently.
//
// v1 endpoints (see mochy/api for the wire types):
//
//	GET    /v1/healthz                   liveness, cache and pool counters
//	GET    /v1/metrics                   Prometheus text exposition (typed registry)
//	GET    /v1/graphs                    registered graph names (immutable and live)
//	PUT    /v1/graphs/{name}             upload: binary, text or JSON by Content-Type
//	GET    /v1/graphs/{name}             download: binary, text or JSON by Accept
//	DELETE /v1/graphs/{name}             unregister (immutable and live), purge cached results
//	GET    /v1/graphs/{name}/stats       structural statistics
//	POST   /v1/graphs/{name}/count       start an exact / edge-sample / wedge-sample job -> 202
//	POST   /v1/graphs/{name}/profile     start a characteristic-profile job -> 202
//	POST   /v1/graphs/{name}/pipeline    start a declarative multi-stage plan -> 202
//	GET    /v1/jobs[/{id}[/events]]      list / poll / stream job progress (NDJSON)
//	POST   /v1/admin/checkpoint          fold live WALs into base segments
//	GET    /v1/admin/store               persistence footprint and counters
//	GET    /v1/admin/traces              recorded request/job span trees (?min=, ?limit=)
//
// Live graphs (mutable, incrementally counted):
//
//	POST   /v1/graphs/{name}/edges       batch-insert hyperedges {"edges": [[...], ...]}
//	DELETE /v1/graphs/{name}/edges/{id}  remove one live hyperedge
//	GET    /v1/graphs/{name}/edges       list live hyperedge ids
//	PATCH  /v1/graphs/{name}             mixed delta {"deletes": [...], "inserts": [[...], ...]}
//	GET    /v1/graphs/{name}/counts      always-current exact counts, O(1)
//	POST   /v1/graphs/{name}/snapshot    freeze into the immutable registry [{"as": ...}]
//	POST   /v1/streams/{name}            NDJSON hyperedge ingest (exact + reservoir estimates)
//	GET    /v1/streams/{name}            reservoir estimator state next to exact counts
//
// Only /v1 paths are served; count and profile run as jobs, never
// synchronously, and any other path answers 404.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mochy/internal/hypergraph"
	"mochy/internal/obs"
	"mochy/internal/server"
	"mochy/internal/store"
)

// loadFlags collects repeated -load name=path flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }

func (l *loadFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

// debugMux builds the pprof-only mux for -debug-addr. The handlers are
// registered explicitly on a private mux — importing net/http/pprof for its
// side effect would put them on http.DefaultServeMux, which is one careless
// Handler swap away from the public listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() { os.Exit(run()) }

// run is main with an exit code: every early-error return still unwinds
// through the deferred srv.Close, so a boot that fails after the store
// opened (bad preload file, recovery error) flushes WAL buffers and the
// manifest instead of abandoning them the way log.Fatalf used to.
func run() (code int) {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheSize     = flag.Int("cache", 256, "result cache capacity in entries (<=0 disables)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrent counting jobs (0 = GOMAXPROCS)")
		maxWorkers    = flag.Int("max-workers", 0, "cap on per-request workers (0 = GOMAXPROCS)")
		samplingTTL   = flag.Duration("sampling-ttl", 15*time.Minute, "lifetime of cached sampling-based results (0 = keep until evicted)")
		queueBudget   = flag.Duration("queue-budget", 10*time.Second, "answer 429 once the job queue has been saturated this long (0 = never)")
		dataDir       = flag.String("data-dir", "", "directory for durable graph storage (empty = in-memory only)")
		ckptWALBytes  = flag.Int64("checkpoint-wal-bytes", 0, "checkpoint a live graph automatically once its WAL exceeds this many bytes (0 = manual checkpoints only; requires -data-dir)")
		debugAddr     = flag.String("debug-addr", "", "listen address for the pprof debug server (empty = disabled; never exposed on -addr)")
		logFormat     = flag.String("log-format", obs.LogFormatJSON, "structured log format: json or text")
		traceBuffer   = flag.Int("trace-buffer", 512, "retained spans in the trace flight recorder (0 disables retention; ids still propagate and spans are still timed)")
		pipeMaxStages = flag.Int("pipeline-max-stages", 0, "max stages per pipeline plan (0 = default)")
		loads         loadFlags
	)
	flag.Var(&loads, "load", "preload a graph as name=path (repeatable)")
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)

	if *cacheSize == 0 {
		*cacheSize = -1 // flag 0 means "disable", Config 0 means "default"
	}
	if *samplingTTL == 0 {
		*samplingTTL = -1 // flag 0 means "no expiry", Config 0 means "default"
	}
	if *queueBudget == 0 {
		*queueBudget = -1 // flag 0 means "no backpressure", Config 0 means "default"
	}
	if *traceBuffer == 0 {
		*traceBuffer = -1 // flag 0 means "disable recording", Config 0 means "default"
	}
	cfg := server.Config{
		CacheSize:          *cacheSize,
		MaxConcurrent:      *maxConcurrent,
		MaxWorkersPerJob:   *maxWorkers,
		SamplingTTL:        *samplingTTL,
		QueueBudget:        *queueBudget,
		CheckpointWALBytes: *ckptWALBytes,
		Logger:             logger,
		TraceBuffer:        *traceBuffer,
		PipelineMaxStages:  *pipeMaxStages,
	}
	if *dataDir != "" {
		st, err := store.Open(*dataDir)
		if err != nil {
			logger.Error("open data dir failed", "dir", *dataDir, "error", err)
			return 1
		}
		cfg.Store = st // the server owns it from here; srv.Close flushes it
	}
	srv := server.New(cfg)
	// Every exit path — early error returns included — flushes the store.
	// An error here is the difference between "every acknowledged mutation
	// is on disk" and silent data loss at exit, so it forces a non-zero
	// code for supervisors. Close is idempotent; the happy path below
	// closes explicitly after draining and this defer sees nil.
	defer func() {
		if err := srv.Close(); err != nil {
			logger.Error("close failed", "error", err)
			code = 1
		}
	}()

	if *dataDir != "" {
		stats, err := srv.Recover()
		if err != nil {
			logger.Error("recovery failed", "dir", *dataDir, "error", err)
			return 1
		}
		logger.Info("recovery complete", "dir", *dataDir,
			"graphs", stats.Graphs, "live_graphs", stats.LiveGraphs,
			"wal_records", stats.WALRecords, "torn_tails", stats.TornTails,
			"duration", stats.Duration.Round(time.Millisecond).String())
	}

	for _, spec := range loads {
		name, path, _ := strings.Cut(spec, "=")
		f, err := os.Open(path)
		if err != nil {
			logger.Error("preload failed", "spec", spec, "error", err)
			return 1
		}
		g, err := hypergraph.Parse(f)
		f.Close()
		if err != nil {
			logger.Error("preload failed", "spec", spec, "error", err)
			return 1
		}
		res, err := srv.LoadGraph(name, g)
		if err != nil {
			logger.Error("preload failed", "spec", spec, "error", err)
			return 1
		}
		logger.Info("graph preloaded", "graph", name,
			"nodes", res.Stats.NumNodes, "edges", res.Stats.NumEdges)
	}

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug server (pprof) listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The debug listener is diagnostics, not service: losing it
				// must not take mochyd down.
				logger.Warn("debug server failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("mochyd listening", "addr", *addr,
		"cache", *cacheSize, "jobs", *maxConcurrent, "trace_buffer", *traceBuffer)

	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		return 1
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting work and drain in-flight requests
	// first, then the deferred srv.Close flushes every WAL buffer and the
	// manifest so no acknowledged mutation is lost.
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown incomplete", "error", err)
	}
	if err := srv.Close(); err != nil {
		logger.Error("close failed", "error", err)
		return 1
	}
	logger.Info("flushed; exiting")
	return 0
}
