package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/cp"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/pipeline"
	"mochy/internal/projection"
	"mochy/internal/testutil"
)

// newTestServer returns an httptest server over a Server whose worker cap is
// high enough that tests' explicit workers values are never clamped.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 8})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]json.RawMessage {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

func field[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing field %q: %v", key, m)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

func loadGraph(t *testing.T, baseURL, name string, g *hypergraph.Hypergraph) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	resp, _ := doJSON(t, http.MethodPut, baseURL+"/v1/graphs/"+name, api.GraphDoc{Text: buf.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load %s: HTTP %d", name, resp.StatusCode)
	}
}

// runJob starts a v1 count or profile job at url and waits for it on the
// job's event stream. A request refused up front returns its response and
// error body; an accepted one returns the event stream's response and the
// job's result document. A failed job fails the test.
func runJob(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, job := postJSON(t, url, body)
	if resp.StatusCode != http.StatusAccepted {
		return resp, job
	}
	base := strings.TrimSuffix(url, resp.Request.URL.Path)
	ev, err := http.Get(base + resp.Header.Get("Location") + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	dec := json.NewDecoder(ev.Body)
	for {
		var e api.JobEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("job %s events: %v", field[string](t, job, "id"), err)
		}
		switch e.Type {
		case api.EventResult:
			var result map[string]json.RawMessage
			if err := json.Unmarshal(e.Result, &result); err != nil {
				t.Fatal(err)
			}
			return ev, result
		case api.EventError:
			t.Fatalf("job %s failed: %s", field[string](t, job, "id"), e.Error)
		}
	}
}

// runStage runs params as a one-stage plan of kind on e through the server's
// memo, the way a count or profile job does, and reports whether the stage
// was served from the cache.
func runStage(s *Server, e *Entry, kind string, params any) (cached bool, err error) {
	plan, err := pipeline.One(kind, params)
	if err != nil {
		return false, err
	}
	res, err := pipeline.Run(context.Background(), s.pipelineEnv(e), plan)
	if err != nil {
		return false, err
	}
	return res.Stages[0].Cached, nil
}

// waitJob polls job id until it is terminal and returns its resource.
func waitJob(t *testing.T, baseURL, id string) api.Job {
	t.Helper()
	var j api.Job
	testutil.Eventually(t, 30*time.Second, func() bool {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		return j.Terminal()
	}, "job %s did not finish", id)
	return j
}

func benchGraph(seed int64) *hypergraph.Hypergraph {
	return generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 150, Edges: 700, Seed: seed,
	})
}

func TestLoadTextAndStatsRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/fig2", map[string]any{
		"text": "0 1 2\n0 3 1\n4 5 0\n6 7 2\n",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d, want 201", resp.StatusCode)
	}
	if got := field[string](t, body, "name"); got != "fig2" {
		t.Fatalf("name = %q", got)
	}
	if field[bool](t, body, "replaced") {
		t.Fatal("first load reported replaced")
	}

	resp, stats := getJSON(t, ts.URL+"/v1/graphs/fig2/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: HTTP %d", resp.StatusCode)
	}
	if n := field[int](t, stats, "num_nodes"); n != 8 {
		t.Fatalf("num_nodes = %d, want 8", n)
	}
	if n := field[int](t, stats, "num_edges"); n != 4 {
		t.Fatalf("num_edges = %d, want 4", n)
	}
	if h := field[map[string]int](t, stats, "size_histogram"); h["3"] != 4 {
		t.Fatalf("size_histogram = %v, want 4 edges of size 3", h)
	}

	resp, list := getJSON(t, ts.URL+"/v1/graphs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	if got := field[[]string](t, list, "graphs"); len(got) != 1 || got[0] != "fig2" {
		t.Fatalf("graphs = %v, want [fig2]", got)
	}
}

func TestLoadEdgesBody(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/tri", map[string]any{
		"edges": [][]int32{{0, 1, 2}, {0, 1, 3}, {2, 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("HTTP %d, want 201", resp.StatusCode)
	}
	var stats api.Stats
	if err := json.Unmarshal(body["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges != 3 || stats.NumNodes != 4 {
		t.Fatalf("stats = %+v, want 3 edges over 4 nodes", stats)
	}
}

func TestLoadValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"invalid JSON", "{"},
		{"no payload", `{}`},
		{"both payloads", `{"text": "0 1\n", "edges": [[0, 1]]}`},
		{"malformed text", `{"text": "0 x\n"}`},
		// A huge node ID must be rejected, not allocated for: the incidence
		// index is proportional to the largest ID.
		{"huge node id in edges", `{"edges": [[2000000000]]}`},
		{"huge node id in text", `{"text": "0 2000000000\n"}`},
		{"huge num_nodes", `{"num_nodes": 2000000000, "edges": [[0, 1]]}`},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/g", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", api.ContentTypeJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
		if msg := field[string](t, body, "error"); msg == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestCountMatchesLibrary checks the acceptance criterion that served counts
// are identical to direct library calls, for all three algorithms.
func TestCountMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	g := benchGraph(3)
	loadGraph(t, ts.URL, "g", g)
	p := projection.Build(g)

	const samples, seed, workers = 500, 99, 2
	cases := []struct {
		algo string
		req  map[string]any
		want counting.Counts
	}{
		{"exact", map[string]any{"algorithm": "exact", "workers": workers},
			counting.CountExact(g, p, workers)},
		{"edge-sample", map[string]any{"algorithm": "edge-sample", "samples": samples, "seed": seed, "workers": workers},
			counting.CountEdgeSamples(g, p, samples, seed, workers)},
		{"wedge-sample", map[string]any{"algorithm": "wedge-sample", "samples": samples, "seed": seed, "workers": workers},
			counting.CountWedgeSamples(g, p, p, samples, seed, workers)},
	}
	for _, tc := range cases {
		_, body := runJob(t, ts.URL+"/v1/graphs/g/count", tc.req)
		got := field[[]float64](t, body, "counts")
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d counts, want %d", tc.algo, len(got), len(tc.want))
		}
		for i, v := range got {
			if v != tc.want[i] {
				t.Errorf("%s: counts[%d] = %v, want %v (must be identical to the library)", tc.algo, i, v, tc.want[i])
			}
		}
		if total := field[float64](t, body, "total"); total != tc.want.Total() {
			t.Errorf("%s: total = %v, want %v", tc.algo, total, tc.want.Total())
		}
		if field[bool](t, body, "cached") {
			t.Errorf("%s: cold query reported cached", tc.algo)
		}
	}
}

func TestCountCacheSemantics(t *testing.T) {
	ts, s := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(4))

	req := map[string]any{"algorithm": "exact"}
	_, cold := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if field[bool](t, cold, "cached") {
		t.Fatal("first query reported cached")
	}
	_, warm := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if !field[bool](t, warm, "cached") {
		t.Fatal("repeat query not served from cache")
	}
	if !bytes.Equal(cold["counts"], warm["counts"]) {
		t.Fatal("cached counts differ from cold counts")
	}

	// Different parameters are different cache keys.
	_, other := runJob(t, ts.URL+"/v1/graphs/g/count",
		map[string]any{"algorithm": "edge-sample", "samples": 100, "seed": 1})
	if field[bool](t, other, "cached") {
		t.Fatal("different algorithm was served the cached exact result")
	}

	// Re-uploading the graph invalidates prior results via the generation
	// in the cache key: a fresh upload must recompute.
	loadGraph(t, ts.URL, "g", benchGraph(5))
	_, reloaded := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if field[bool](t, reloaded, "cached") {
		t.Fatal("replaced graph served the old graph's cached counts")
	}
	if bytes.Equal(cold["counts"], reloaded["counts"]) {
		t.Fatal("replaced graph returned the old graph's counts")
	}
	if hits, _ := s.cache.Counters(); hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

// TestSamplingCacheIgnoresWorkers: estimates are identical at every worker
// count, so a sampling query repeated at another worker count is a hit.
func TestSamplingCacheIgnoresWorkers(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(11))
	req := map[string]any{"algorithm": "wedge-sample", "samples": 300, "seed": 5, "workers": 1}
	_, cold := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if field[bool](t, cold, "cached") {
		t.Fatal("first query reported cached")
	}
	req["workers"] = 2
	_, warm := runJob(t, ts.URL+"/v1/graphs/g/count", req)
	if !field[bool](t, warm, "cached") {
		t.Fatal("same estimate at workers=2 missed the cache")
	}
	if !bytes.Equal(cold["counts"], warm["counts"]) {
		t.Fatal("cached estimate differs from the cold one")
	}
}

func TestCountValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(6))

	resp, _ := runJob(t, ts.URL+"/v1/graphs/missing/count", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "edge-sample"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing samples: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "wedge-sample", "samples": math.MaxInt64})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("samples past 2^31-1: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/graphs/g/count")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET count: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestStreamedCount: an exact count job streams monotone progress events
// and then exactly one result on /v1/jobs/{id}/events, and a repeat of the
// query replays the cached result with no progress.
func TestStreamedCount(t *testing.T) {
	ts, s := newTestServer(t)
	// Large enough that every worker processes more than one progress
	// stride (256 anchors), so mid-run progress events are guaranteed.
	g := generator.Generate(generator.Config{
		Domain: generator.Contact, Nodes: 600, Edges: 4000, Seed: 7,
	})
	loadGraph(t, ts.URL, "g", g)
	want := counting.CountExact(g, projection.Build(g), 2)

	// stream starts the count while every pool slot is held, subscribes to
	// its events, and only then lets the kernel run, so no progress event
	// can fire before the subscription exists.
	stream := func() (progress []api.JobEvent, result api.CountResult) {
		t.Helper()
		for i := 0; i < s.pool.Capacity(); i++ {
			if err := s.pool.Acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		held := s.pool.Capacity()
		defer func() {
			for ; held > 0; held-- {
				s.pool.Release()
			}
		}()
		resp, job := postJSON(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact", "workers": 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("start: HTTP %d", resp.StatusCode)
		}
		id := field[string](t, job, "id")
		ev, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Body.Close()
		if ct := ev.Header.Get("Content-Type"); ct != api.ContentTypeNDJSON {
			t.Fatalf("Content-Type = %q, want %s", ct, api.ContentTypeNDJSON)
		}
		j, _ := s.jobs.get(id)
		testutil.Eventually(t, 5*time.Second, func() bool {
			select {
			case <-j.doneCh:
				return true // a cache hit finishes without a pool slot
			default:
			}
			j.mu.Lock()
			defer j.mu.Unlock()
			return len(j.subs) == 1
		}, "events subscriber never attached")
		for ; held > 0; held-- {
			s.pool.Release()
		}

		done := false
		sc := bufio.NewScanner(ev.Body)
		for sc.Scan() {
			var e api.JobEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			switch e.Type {
			case api.EventProgress:
				if done {
					t.Fatal("progress event after result")
				}
				progress = append(progress, e)
			case api.EventResult:
				if err := json.Unmarshal(e.Result, &result); err != nil {
					t.Fatal(err)
				}
				done = true
			default:
				t.Fatalf("unexpected event %+v", e)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatal("stream ended without a result event")
		}
		return progress, result
	}

	progress, result := stream()
	if len(progress) == 0 {
		t.Fatal("stream produced no progress events")
	}
	lastDone := 0
	for _, e := range progress {
		if e.Total != g.NumEdges() {
			t.Fatalf("progress total = %d, want %d", e.Total, g.NumEdges())
		}
		if e.Done < lastDone {
			t.Fatalf("progress went backwards: %d after %d", e.Done, lastDone)
		}
		lastDone = e.Done
	}
	for i, v := range result.Counts {
		if v != want[i] {
			t.Fatalf("streamed counts[%d] = %v, want %v", i, v, want[i])
		}
	}

	// A second query replays the now-cached result immediately.
	progress, result = stream()
	if len(progress) != 0 || !result.Cached {
		t.Fatalf("cached stream = %d progress events, cached %v; want an immediate cached result", len(progress), result.Cached)
	}
}

// TestProfileMatchesLibrary checks that a served characteristic profile is
// identical to computing it directly against the same Chung-Lu nulls.
func TestProfileMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	g := benchGraph(8)
	loadGraph(t, ts.URL, "g", g)

	const randomizations, seed, workers = 2, 77, 2
	real := counting.CountExact(g, projection.Build(g), workers)
	copies := nullmodel.NewRandomizer(g).GenerateN(randomizations, seed)
	randomized := make([]*counting.Counts, len(copies))
	for i, c := range copies {
		cc := counting.CountExact(c, projection.Build(c), workers)
		randomized[i] = &cc
	}
	want := cp.Compute(&real, randomized)

	_, body := runJob(t, ts.URL+"/v1/graphs/g/profile",
		map[string]any{"randomizations": randomizations, "seed": seed, "workers": workers})
	got := field[[]float64](t, body, "profile")
	if len(got) != len(want) {
		t.Fatalf("profile length = %d, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v != want[i] {
			t.Errorf("profile[%d] = %v, want %v (must be identical to the library)", i, v, want[i])
		}
	}
	if field[bool](t, body, "cached") {
		t.Fatal("cold profile reported cached")
	}

	// The repeat is a cache hit; the exact-count half is also now cached
	// for count queries.
	_, warm := runJob(t, ts.URL+"/v1/graphs/g/profile",
		map[string]any{"randomizations": randomizations, "seed": seed, "workers": workers})
	if !field[bool](t, warm, "cached") {
		t.Fatal("repeat profile not served from cache")
	}
	_, count := runJob(t, ts.URL+"/v1/graphs/g/count",
		map[string]any{"algorithm": "exact", "workers": workers})
	if !field[bool](t, count, "cached") {
		t.Fatal("profile did not seed the exact-count cache")
	}
}

// TestProfileValidation: a profile request is checked like a pipeline
// profile stage. Every randomized copy costs one full exact count, so the
// ensemble size is capped.
func TestProfileValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(12))
	for _, n := range []int{-1, 65} {
		resp, body := postJSON(t, ts.URL+"/v1/graphs/g/profile", map[string]any{"randomizations": n})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("randomizations %d: HTTP %d, want 400", n, resp.StatusCode)
		}
		if msg := field[string](t, body, "error"); !strings.Contains(msg, "randomizations must be in [1, 64]") {
			t.Fatalf("randomizations %d: error %q does not name the range", n, msg)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/graphs/missing/profile", map[string]any{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestProfileOfEdgelessGraph: a graph without hyperedges registers fine but
// gives a null model nothing to randomize. Its profile job must fail, not
// panic in the job goroutine and take the daemon down with it.
func TestProfileOfEdgelessGraph(t *testing.T) {
	ts, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/text", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", api.ContentTypeText)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty text upload: HTTP %d, want 201", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs/json", map[string]any{"edges": [][]int32{}}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty edges upload: HTTP %d, want 201", resp.StatusCode)
	}

	for _, name := range []string{"text", "json"} {
		resp, job := postJSON(t, ts.URL+"/v1/graphs/"+name+"/profile", map[string]any{"randomizations": 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d, want 202", name, resp.StatusCode)
		}
		j := waitJob(t, ts.URL, field[string](t, job, "id"))
		if j.State != api.JobFailed || !strings.Contains(j.Error, "no incidences") {
			t.Fatalf("%s: job %s (%q), want failed with no incidences", name, j.State, j.Error)
		}
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the failed profiles: HTTP %d", resp.StatusCode)
	}
}

// TestProfileCollapsesConcurrentJobs: four identical cold profile jobs run
// one ensemble, and a later pipeline null_model stage with the same
// randomizations and seed is served that ensemble's cache entry. The traced
// leader records its job, stage and kernel spans.
func TestProfileCollapsesConcurrentJobs(t *testing.T) {
	ts, s := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(13))
	e, _ := s.registry.Get("g")
	ensembles := s.mets.spanDuration.With("kernel.null-model")
	before := ensembles.Count()

	// Hold every pool slot so the first job parks at admission as the
	// leader of both the null_model and the exact-count flights, and the
	// others join its null_model flight.
	for i := 0; i < s.pool.Capacity(); i++ {
		if err := s.pool.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	held := s.pool.Capacity()
	defer func() {
		for ; held > 0; held-- {
			s.pool.Release()
		}
	}()
	body := `{"randomizations": 2, "seed": 9, "workers": 2}`
	trace := client.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs/g/profile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{field[string](t, decodeBody(t, resp), "id")}
	testutil.Eventually(t, 5*time.Second, func() bool { return s.pool.Waiting() == 1 }, "leader never queued for a pool slot")
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/graphs/g/profile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, field[string](t, decodeBody(t, resp), "id"))
	}
	key := pipeline.Key(e.ID(), api.StageNullModel, "m=chung-lu|n=2|seed=9|spi=0")
	testutil.Eventually(t, 5*time.Second, func() bool { return s.flight.waiting(key) == 3 }, "jobs never joined the leader's flight")
	for ; held > 0; held-- {
		s.pool.Release()
	}

	var profile []float64
	for _, id := range ids {
		j := waitJob(t, ts.URL, id)
		res, err := j.ProfileResult()
		if j.State != api.JobDone || err != nil {
			t.Fatalf("job %s: %s %q (%v)", id, j.State, j.Error, err)
		}
		if profile == nil {
			profile = res.Profile
		} else if !reflect.DeepEqual(res.Profile, profile) {
			t.Fatalf("collapsed profiles differ: %v vs %v", res.Profile, profile)
		}
	}
	if n := ensembles.Count() - before; n != 1 {
		t.Fatalf("four identical profiles ran %d ensembles, want 1", n)
	}

	id, _ := startPipeline(t, ts.URL, "g", pipelineStage("sig", "null_model", `{"randomizations": 2, "seed": 9}`))
	res := waitPipelineJob(t, ts.URL, id)
	sig, err := res.Stages[0].SignificanceResult()
	if err != nil || !res.Stages[0].Cached || !reflect.DeepEqual(sig.Profile, profile) {
		t.Fatalf("null_model stage = cached %v, profile %v (%v); want the profiles' cached ensemble %v", res.Stages[0].Cached, sig.Profile, err, profile)
	}

	spans := map[string]bool{}
	testutil.Eventually(t, 5*time.Second, func() bool {
		for _, sp := range s.tracer.Snapshot() {
			if sp.TraceID == trace {
				spans[sp.Name] = true
			}
		}
		return spans["job.profile"]
	}, "job.profile span never recorded")
	for _, name := range []string{"stage.profile", "kernel.null-model", "kernel.exact"} {
		if !spans[name] {
			t.Errorf("traced profile job lacks a %s span (got %v)", name, spans)
		}
	}
}

func TestDeleteGraph(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(9))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d, want 200", resp.StatusCode)
	}
	resp2, _ := getJSON(t, ts.URL+"/v1/graphs/g/stats")
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: HTTP %d, want 404", resp2.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(10))
	runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})
	runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})

	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if got := field[string](t, body, "status"); got != "ok" {
		t.Fatalf("status = %q", got)
	}
	if got := field[int](t, body, "graphs"); got != 1 {
		t.Fatalf("graphs = %d, want 1", got)
	}
	if got := field[uint64](t, body, "cache_hits"); got == 0 {
		t.Fatal("cache_hits = 0 after a repeated query")
	}
	if got := field[int](t, body, "job_capacity"); got != 4 {
		t.Fatalf("job_capacity = %d, want 4", got)
	}
}

// TestConcurrentClients drives parallel loads, counts and profiles against
// one server; run with -race this covers the registry/cache/pool acceptance
// criterion for concurrent correctness.
func TestConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t)
	graphs := make([]*hypergraph.Hypergraph, 4)
	wants := make([]counting.Counts, len(graphs))
	for i := range graphs {
		graphs[i] = generator.Generate(generator.Config{
			Domain: generator.Email, Nodes: 80, Edges: 300, Seed: int64(20 + i),
		})
		wants[i] = counting.CountExact(graphs[i], projection.Build(graphs[i]), 1)
		loadGraph(t, ts.URL, fmt.Sprintf("g%d", i), graphs[i])
	}

	sdk := client.New(ts.URL)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				idx := (c + i) % len(graphs)
				res, err := sdk.Count(context.Background(), fmt.Sprintf("g%d", idx), api.CountRequest{Algorithm: api.AlgoExact})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for j, v := range res.Counts {
					if v != wants[idx][j] {
						t.Errorf("client %d graph %d: counts[%d] = %v, want %v", c, idx, j, v, wants[idx][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
