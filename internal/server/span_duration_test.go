package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"mochy/api"
	"mochy/client"
	"mochy/internal/store"
)

// TestSpanDurationWithoutRing: with the flight recorder off, every layer a
// count job, a profile job and a count → null_model → rank pipeline cross
// still lands in mochyd_span_duration_seconds, and /v1/admin/traces retains
// nothing. Each job's span is read as soon as the client sees the job
// terminal, so a job span that ended after the job finished fails here.
func TestSpanDurationWithoutRing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 4, Store: st, TraceBuffer: -1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", benchGraph(5)); err != nil {
		t.Fatal(err)
	}

	scrape := func() *api.MetricsSnapshot {
		t.Helper()
		snap, err := c.MetricsSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	timed := func(snap *api.MetricsSnapshot, name string) {
		t.Helper()
		if n, _ := snap.Value("mochyd_span_duration_seconds_count", map[string]string{"name": name}); n < 1 {
			t.Errorf("span %q timed %v times, want >= 1", name, n)
		}
	}

	if _, err := c.Count(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact}); err != nil {
		t.Fatal(err)
	}
	timed(scrape(), "job.count")
	if _, err := c.Profile(ctx, "g", api.ProfileRequest{Randomizations: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	timed(scrape(), "job.profile")
	if _, err := c.RunPipeline(ctx, "g", api.PipelineRequest{Stages: []api.PipelineStage{
		pipelineStage("count", "count", ""),
		pipelineStage("sig", "null_model", `{"randomizations": 2, "seed": 4}`, "count"),
		pipelineStage("rank", "rank", "", "sig"),
	}}); err != nil {
		t.Fatal(err)
	}
	snap := scrape()
	for _, name := range []string{
		"job.pipeline",
		"stage.count", "stage.profile", "stage.null_model", "stage.rank",
		"pool.wait", "projection.build",
		"kernel.exact", "kernel.setup", "kernel.enumerate", "kernel.merge", "kernel.null-model",
		"cache.write", "persist.counts",
	} {
		timed(snap, name)
	}

	traces, err := c.Traces(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) != 0 {
		t.Fatalf("flight recorder off, yet /v1/admin/traces retained %d traces", len(traces.Traces))
	}
}

// TestProjectionBuildTimedOnce: an entry's projection is built once, so
// five cold sampled counts of one upload time one projection.build span, not
// one per count.
func TestProjectionBuildTimedOnce(t *testing.T) {
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 4, TraceBuffer: -1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", benchGraph(5)); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := c.Count(ctx, "g", api.CountRequest{Algorithm: api.AlgoWedge, Samples: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("count with seed %d served from the cache, want a cold count", seed)
		}
	}
	snap, err := c.MetricsSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := snap.Value("mochyd_span_duration_seconds_count", map[string]string{"name": "projection.build"}); n != 1 {
		t.Fatalf("projection.build timed %v times over five cold counts of one upload, want 1", n)
	}
}

// TestProfileCopiesRecordKernelPhases: a profile counts its Chung-Lu copies
// on the pipeline's own loop, and each copy still shows on the daemon. After
// an exact count, a profile of 3 randomizations (its real counts cached)
// times exactly 3 more projection.build, kernel.setup and kernel.enumerate
// spans, one per copy, and hands out more scheduler chunks.
func TestProfileCopiesRecordKernelPhases(t *testing.T) {
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 4, TraceBuffer: -1})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.UploadGraph(ctx, "g", benchGraph(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "g", api.CountRequest{Algorithm: api.AlgoExact}); err != nil {
		t.Fatal(err)
	}
	spans := []string{"projection.build", "kernel.setup", "kernel.enumerate"}
	read := func() (map[string]float64, float64) {
		t.Helper()
		snap, err := c.MetricsSnapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		n := make(map[string]float64, len(spans))
		for _, name := range spans {
			n[name], _ = snap.Value("mochyd_span_duration_seconds_count", map[string]string{"name": name})
		}
		chunks, _ := snap.Value("mochyd_kernel_chunks_total", nil)
		return n, chunks
	}
	before, chunks0 := read()
	if _, err := c.Profile(ctx, "g", api.ProfileRequest{Randomizations: 3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	after, chunks1 := read()
	for _, name := range spans {
		if d := after[name] - before[name]; d != 3 {
			t.Errorf("span %q timed %v more times over a profile of 3 copies, want 3", name, d)
		}
	}
	if chunks1 <= chunks0 {
		t.Errorf("mochyd_kernel_chunks_total went from %v to %v over a profile of 3 copies, want it raised", chunks0, chunks1)
	}
}

// TestRequestDurationResolvesMicroseconds: an in-process healthz request
// takes tens of microseconds, and the HTTP latency histogram resolves it
// below 0.5 ms instead of folding it into one sub-millisecond bucket.
func TestRequestDurationResolvesMicroseconds(t *testing.T) {
	const n = 50
	s := New(Config{})
	t.Cleanup(func() { s.Close() })
	for i := 0; i < n; i++ {
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	snap, err := api.ParseMetrics(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := snap.Histogram("mochyd_http_request_duration_seconds", map[string]string{"route": "GET /v1/healthz"})
	if !ok || h.Count != n {
		t.Fatalf("healthz latency histogram = %+v, want %d observations", h, n)
	}
	var below uint64
	for _, b := range h.Buckets {
		if b.UpperBound < 0.0005 {
			below = b.CumulativeCount
		}
	}
	if below == 0 {
		t.Fatalf("no healthz request landed in a bucket below le=0.0005: %+v", h.Buckets)
	}
}
