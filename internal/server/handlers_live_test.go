package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
)

// doJSON issues a request with a JSON body using an arbitrary method.
func doJSON(t *testing.T, method, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

// recount builds a hypergraph from tracked edges and runs MoCHy-E on it.
func recount(t *testing.T, edges [][]int32) counting.Counts {
	t.Helper()
	b := hypergraph.NewBuilder(0)
	for _, e := range edges {
		b.AddEdge(e)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return counting.CountExact(g, projection.Build(g), 1)
}

func assertCounts(t *testing.T, body map[string]json.RawMessage, want counting.Counts, context string) {
	t.Helper()
	got := field[[]float64](t, body, "counts")
	if len(got) != len(want) {
		t.Fatalf("%s: %d counts, want %d", context, len(got), len(want))
	}
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("%s: counts[%d] = %v, want %v", context, i, v, want[i])
		}
	}
}

func TestLiveEdgesInsertDeleteCounts(t *testing.T) {
	ts, _ := newTestServer(t)
	edges := [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}

	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": edges})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert batch: HTTP %d: %s", resp.StatusCode, body["error"])
	}
	if got := field[int](t, body, "applied"); got != len(edges) {
		t.Fatalf("applied = %d, want %d", got, len(edges))
	}
	if got := field[uint64](t, body, "version"); got != uint64(len(edges)) {
		t.Fatalf("version = %d, want %d", got, len(edges))
	}
	assertCounts(t, body, recount(t, edges), "after insert")

	// GET /v1/graphs/g/counts is the always-current read path.
	resp, counts := getJSON(t, ts.URL+"/v1/graphs/g/counts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("counts: HTTP %d", resp.StatusCode)
	}
	assertCounts(t, counts, recount(t, edges), "GET counts")
	if got := field[int](t, counts, "edges"); got != len(edges) {
		t.Fatalf("edges = %d, want %d", got, len(edges))
	}

	// Delete one hyperedge by id; counts must match a recount without it.
	results := field[[]map[string]any](t, body, "results")
	id := int32(results[1]["id"].(float64))
	resp, del := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/graphs/g/edges/%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete edge: HTTP %d: %s", resp.StatusCode, del["error"])
	}
	assertCounts(t, del, recount(t, [][]int32{edges[0], edges[2], edges[3]}), "after delete")

	// Deleting it again is a 404.
	resp, _ = doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/graphs/g/edges/%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: HTTP %d, want 404", resp.StatusCode)
	}

	// Re-inserting an already-live node set is a conflict.
	resp, conflict := postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{2, 1, 0}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate insert: HTTP %d, want 409 (%v)", resp.StatusCode, conflict)
	}
	if got := field[int](t, conflict, "applied"); got != 0 {
		t.Fatalf("duplicate insert applied %d ops", got)
	}
}

func TestLiveEdgesValidation(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, _ := getJSON(t, ts.URL+"/v1/graphs/none/counts")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("counts of unknown live graph: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/none/edges/0", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete on unknown live graph: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty hyperedge: HTTP %d, want 400", resp.StatusCode)
	}
	// The live path enforces the same node-universe cap as graph upload.
	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{0, 2000000000}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge node id: HTTP %d, want 400 (%v)", resp.StatusCode, body)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/g/edges/notanint", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad edge id: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestLivePatchMixedDelta(t *testing.T) {
	ts, _ := newTestServer(t)

	// PATCH can bootstrap a live graph from pure inserts.
	resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g", map[string]any{
		"inserts": [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap patch: HTTP %d: %s", resp.StatusCode, body["error"])
	}
	results := field[[]map[string]any](t, body, "results")
	id0 := int32(results[0]["id"].(float64))

	// Mixed delta: deletes apply before inserts.
	resp, body = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g", map[string]any{
		"deletes": []int32{id0},
		"inserts": [][]int32{{6, 7, 2}, {0, 1, 2, 8}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed patch: HTTP %d: %s", resp.StatusCode, body["error"])
	}
	if got := field[int](t, body, "applied"); got != 3 {
		t.Fatalf("applied = %d, want 3", got)
	}
	want := recount(t, [][]int32{{0, 3, 1}, {4, 5, 0}, {6, 7, 2}, {0, 1, 2, 8}})
	assertCounts(t, body, want, "after mixed patch")

	resp, _ = doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/g", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty patch: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestLiveWorkloadMatchesRecount is the acceptance-criterion property test:
// after N random interleaved inserts and deletes through the HTTP API, the
// served incremental counts equal a from-scratch CountExact recount of the
// materialized live edge set.
func TestLiveWorkloadMatchesRecount(t *testing.T) {
	ts, _ := newTestServer(t)
	rng := rand.New(rand.NewSource(23))

	liveEdges := make(map[int32][]int32)
	var ids []int32
	const steps = 120
	for step := 0; step < steps; step++ {
		switch {
		case len(ids) == 0 || rng.Float64() < 0.55:
			size := 2 + rng.Intn(3)
			nodes := make([]int32, size)
			for i := range nodes {
				nodes[i] = int32(rng.Intn(15))
			}
			resp, body := postJSON(t, ts.URL+"/v1/graphs/w/edges", map[string]any{"edges": [][]int32{nodes}})
			switch resp.StatusCode {
			case http.StatusOK:
				results := field[[]map[string]any](t, body, "results")
				id := int32(results[0]["id"].(float64))
				liveEdges[id] = nodes
				ids = append(ids, id)
			case http.StatusConflict, http.StatusBadRequest:
				// Duplicate node set or degenerate edge; live set unchanged.
			default:
				t.Fatalf("step %d: insert: HTTP %d: %s", step, resp.StatusCode, body["error"])
			}
		case rng.Float64() < 0.5:
			at := rng.Intn(len(ids))
			id := ids[at]
			resp, body := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/graphs/w/edges/%d", ts.URL, id), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: delete %d: HTTP %d: %s", step, id, resp.StatusCode, body["error"])
			}
			delete(liveEdges, id)
			ids[at] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		default:
			// Mixed PATCH: delete one edge and insert another atomically.
			at := rng.Intn(len(ids))
			id := ids[at]
			nodes := []int32{int32(rng.Intn(15)), int32(15 + rng.Intn(5)), int32(20 + step)}
			resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/w", map[string]any{
				"deletes": []int32{id},
				"inserts": [][]int32{nodes},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: patch: HTTP %d: %s", step, resp.StatusCode, body["error"])
			}
			delete(liveEdges, id)
			ids[at] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			results := field[[]map[string]any](t, body, "results")
			nid := int32(results[1]["id"].(float64))
			liveEdges[nid] = nodes
			ids = append(ids, nid)
		}
	}

	resp, body := getJSON(t, ts.URL+"/v1/graphs/w/counts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("counts: HTTP %d", resp.StatusCode)
	}
	tracked := make([][]int32, 0, len(liveEdges))
	for _, e := range liveEdges {
		tracked = append(tracked, e)
	}
	assertCounts(t, body, recount(t, tracked), fmt.Sprintf("after %d interleaved HTTP mutations", steps))
}

// TestLiveSnapshot freezes a live graph into the immutable registry and
// checks that (a) the exact-count cache is seeded so the frozen view's
// exact count is an immediate hit, (b) the counts are right, and (c) the
// sampling endpoints work against the frozen view.
func TestLiveSnapshot(t *testing.T) {
	ts, s := newTestServer(t)
	edges := [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}, {1, 4, 6}}
	postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": edges})

	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/snapshot", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body["error"])
	}
	var stats api.Stats
	if err := json.Unmarshal(body["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges != len(edges) {
		t.Fatalf("snapshot stats: %d edges, want %d", stats.NumEdges, len(edges))
	}

	// The frozen view's exact count must be an immediate cache hit equal to
	// a library recount — MoCHy-E never runs.
	hits0, _ := s.cache.Counters()
	resp, count := runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count on frozen view: HTTP %d", resp.StatusCode)
	}
	if !field[bool](t, count, "cached") {
		t.Fatal("snapshot did not seed the exact-count cache")
	}
	hits1, _ := s.cache.Counters()
	if hits1 != hits0+1 {
		t.Fatalf("cache hits went %d -> %d, want one seeded hit", hits0, hits1)
	}
	assertCounts(t, count, recount(t, edges), "frozen-view exact count")

	// Sampling endpoints operate on the frozen view.
	resp, est := runJob(t, ts.URL+"/v1/graphs/g/count",
		map[string]any{"algorithm": "wedge-sample", "samples": 200, "seed": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled count on frozen view: HTTP %d: %s", resp.StatusCode, est["error"])
	}

	// Mutate the live graph and re-snapshot: the stale generation's cached
	// results are purged in place and the new exact counts re-seeded.
	postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{2, 5, 7}}})
	resp, body = postJSON(t, ts.URL+"/v1/graphs/g/snapshot", nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-snapshot: HTTP %d", resp.StatusCode)
	}
	if !field[bool](t, body, "replaced") {
		t.Fatal("re-snapshot did not replace the frozen view")
	}
	_, count2 := runJob(t, ts.URL+"/v1/graphs/g/count", map[string]any{"algorithm": "exact"})
	if !field[bool](t, count2, "cached") {
		t.Fatal("re-snapshot did not seed the new generation's exact count")
	}
	assertCounts(t, count2, recount(t, append(append([][]int32{}, edges...), []int32{2, 5, 7})), "re-snapshot")

	// Snapshot under a different name leaves the original alone.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/g/snapshot", map[string]any{"as": "frozen"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot as: HTTP %d", resp.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/graphs/frozen/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats of named snapshot: HTTP %d", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/graphs/missing/snapshot", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot of unknown live graph: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestDeleteGraphPurgesCache is the satellite acceptance: deleting a graph
// drops its generation-keyed cache entries instead of letting them occupy
// LRU capacity until eviction.
func TestDeleteGraphPurgesCache(t *testing.T) {
	ts, s := newTestServer(t)
	loadGraph(t, ts.URL, "a", benchGraph(31))
	loadGraph(t, ts.URL, "b", benchGraph(32))
	runJob(t, ts.URL+"/v1/graphs/a/count", map[string]any{"algorithm": "exact"})
	runJob(t, ts.URL+"/v1/graphs/a/count", map[string]any{"algorithm": "edge-sample", "samples": 50, "seed": 1})
	runJob(t, ts.URL+"/v1/graphs/b/count", map[string]any{"algorithm": "exact"})
	// Every kind shares one key layout: a profile (one Chung-Lu ensemble
	// entry) and a count -> null_model -> rank pipeline (one more ensemble
	// and a rank entry; its count is a's cached exact count).
	runJob(t, ts.URL+"/v1/graphs/a/profile", map[string]any{"randomizations": 1, "seed": 5})
	id, _ := startPipeline(t, ts.URL, "a",
		pipelineStage("count", "count", ""),
		pipelineStage("sig", "null_model", `{"randomizations": 1, "seed": 6}`, "count"),
		pipelineStage("rank", "rank", "", "sig"),
	)
	waitPipelineJob(t, ts.URL, id)
	if n := s.cache.Len(); n != 6 {
		t.Fatalf("cache has %d entries, want 6", n)
	}

	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/a", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	if got := field[int](t, body, "cache_purged"); got != 5 {
		t.Fatalf("cache_purged = %d, want 5", got)
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache has %d entries after purge, want b's 1", n)
	}

	// Replacing a graph purges the dead generation's entries too.
	runJob(t, ts.URL+"/v1/graphs/b/count", map[string]any{"algorithm": "edge-sample", "samples": 50, "seed": 1})
	loadGraph(t, ts.URL, "b", benchGraph(33))
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache has %d entries after re-upload, want 0 (stale generation purged)", n)
	}
}

// TestDeleteGraphCoversLive checks DELETE /v1/graphs/{name} against live-only
// and mixed live+static names.
func TestDeleteGraphCoversLive(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{0, 1, 2}}})
	postJSON(t, ts.URL+"/v1/graphs/g/snapshot", nil)

	resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	if !field[bool](t, body, "static") || !field[bool](t, body, "live") {
		t.Fatalf("delete did not cover both registries: %v", body)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/graphs/g/counts")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("live counts after delete: HTTP %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestStreamIngestEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	lines := []string{"[0,1,2]", "[0,3,1]", "[4,5,0]", "[6,7,2]", "[0,1,2]", "", "[1,4,6]"}
	body := strings.Join(lines, "\n")

	// Capacity covers the stream, so estimates must equal exact counts.
	resp, err := http.Post(ts.URL+"/v1/streams/s?capacity=100&seed=7", "application/x-ndjson",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res := decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", resp.StatusCode, res["error"])
	}
	if got := field[int](t, res, "ingested"); got != 6 {
		t.Fatalf("ingested = %d, want 6", got)
	}
	if got := field[int](t, res, "inserted"); got != 5 {
		t.Fatalf("inserted = %d, want 5", got)
	}
	if got := field[int](t, res, "duplicates"); got != 1 {
		t.Fatalf("duplicates = %d, want 1", got)
	}
	want := recount(t, [][]int32{{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}, {1, 4, 6}})
	assertCounts(t, res, want, "stream exact counts")
	var est api.StreamState
	if err := json.Unmarshal(res["estimator"], &est); err != nil {
		t.Fatal(err)
	}
	for i, v := range est.Estimates {
		if v != want[i] {
			t.Fatalf("estimates[%d] = %v, want exact %v (capacity covers stream)", i, v, want[i])
		}
	}

	// The live graph is the same object: counts endpoint shows the stream
	// state side by side, and mutations keep working.
	resp2, counts := getJSON(t, ts.URL+"/v1/graphs/s/counts")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("counts: HTTP %d", resp2.StatusCode)
	}
	if _, ok := counts["stream"]; !ok {
		t.Fatal("live counts missing stream state")
	}

	// GET /v1/streams/{name} reports the estimator.
	resp3, got := getJSON(t, ts.URL+"/v1/streams/s")
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: HTTP %d", resp3.StatusCode)
	}
	if got2 := field[int](t, got, "edges"); got2 != 5 {
		t.Fatalf("stream edges = %d, want 5", got2)
	}

	// A later batch reuses the attached estimator (params ignored).
	resp4, err := http.Post(ts.URL+"/v1/streams/s?capacity=2", "application/x-ndjson",
		strings.NewReader("[8,9,0]"))
	if err != nil {
		t.Fatal(err)
	}
	res4 := decodeBody(t, resp4)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("second batch: HTTP %d: %s", resp4.StatusCode, res4["error"])
	}
	var est4 api.StreamState
	if err := json.Unmarshal(res4["estimator"], &est4); err != nil {
		t.Fatal(err)
	}
	if est4.Capacity != 100 {
		t.Fatalf("estimator capacity changed to %d, want original 100", est4.Capacity)
	}
}

func TestStreamValidation(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, _ := getJSON(t, ts.URL+"/v1/streams/none")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown stream: HTTP %d, want 404", resp.StatusCode)
	}
	// A live graph without an estimator is not a stream.
	postJSON(t, ts.URL+"/v1/graphs/plain/edges", map[string]any{"edges": [][]int32{{0, 1}}})
	resp, _ = getJSON(t, ts.URL+"/v1/streams/plain")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET non-stream live graph: HTTP %d, want 404", resp.StatusCode)
	}

	for name, tc := range map[string]struct {
		url  string
		body string
	}{
		"bad capacity":  {"/streams/s?capacity=1", "[0,1]"},
		"bad JSON line": {"/streams/s", "[0,1]\nnot json"},
		"object line":   {"/streams/s", `{"nodes":[0,1]}`},
		"empty body":    {"/streams/s", ""},
	} {
		resp, err := http.Post(ts.URL+"/v1"+tc.url, "application/x-ndjson", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%v)", name, resp.StatusCode, body)
		}
	}

	// A mid-stream invalid record applies the prefix and reports the error.
	resp, err := http.Post(ts.URL+"/v1/streams/partial", "application/x-ndjson",
		strings.NewReader("[0,1,2]\n[-1,3]\n[4,5]"))
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial stream: HTTP %d, want 400", resp.StatusCode)
	}
	if got := field[int](t, body, "ingested"); got != 1 {
		t.Fatalf("partial stream ingested = %d, want 1", got)
	}
	if msg := field[string](t, body, "error"); msg == "" {
		t.Fatal("partial stream reported no error")
	}
}

func TestSamplingTTLExpiry(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxConcurrent: 2, MaxWorkersPerJob: 2, SamplingTTL: time.Nanosecond})
	defer s.Close()
	// Drive the cache clock: entries with the nanosecond TTL are expired by
	// the time they are read back, exact entries never expire.
	g := benchGraph(40)
	e, _ := s.registry.Load("g", g)

	sampled := &api.CountRequest{Algorithm: algoEdge, Samples: 50, Seed: 1, Workers: 1}
	if cached, err := runStage(s, e, api.StageCount, sampled); err != nil || cached {
		t.Fatalf("cold sampled count: cached=%v err=%v", cached, err)
	}
	if cached, err := runStage(s, e, api.StageCount, sampled); err != nil || cached {
		t.Fatalf("expired sampled count served from cache (TTL ignored): cached=%v err=%v", cached, err)
	}
	exact := &api.CountRequest{Algorithm: algoExact, Workers: 1}
	if cached, err := runStage(s, e, api.StageCount, exact); err != nil || cached {
		t.Fatalf("cold exact count: cached=%v err=%v", cached, err)
	}
	if cached, err := runStage(s, e, api.StageCount, exact); err != nil || !cached {
		t.Fatalf("exact count must never expire: cached=%v err=%v", cached, err)
	}

	// Profiles and null_model ensembles are randomized results: both take
	// the sampling TTL.
	for _, tc := range []struct {
		kind   string
		params func() any
	}{
		{api.StageProfile, func() any { return &api.ProfileRequest{Randomizations: 1, Seed: 3, Workers: 1} }},
		{api.StageNullModel, func() any { return &api.NullModelParams{Randomizations: 1, Seed: 4, Workers: 1} }},
	} {
		if cached, err := runStage(s, e, tc.kind, tc.params()); err != nil || cached {
			t.Fatalf("cold %s: cached=%v err=%v", tc.kind, cached, err)
		}
		if cached, err := runStage(s, e, tc.kind, tc.params()); err != nil || cached {
			t.Fatalf("expired %s served from cache (TTL ignored): cached=%v err=%v", tc.kind, cached, err)
		}
	}
}

// TestHealthzLiveGraphs checks the live-graph gauge.
func TestHealthzLiveGraphs(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/graphs/a/edges", map[string]any{"edges": [][]int32{{0, 1}}})
	postJSON(t, ts.URL+"/v1/graphs/b/edges", map[string]any{"edges": [][]int32{{0, 1}}})
	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if got := field[int](t, body, "live_graphs"); got != 2 {
		t.Fatalf("live_graphs = %d, want 2", got)
	}
	resp, list := getJSON(t, ts.URL+"/v1/graphs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	if got := field[[]string](t, list, "live"); len(got) != 2 {
		t.Fatalf("live list = %v, want [a b]", got)
	}
}

// TestConcurrentMutateWhileQuery is the satellite race test: writers
// mutating a live graph over HTTP while readers poll counts, snapshots
// freeze it, and sampled counts run against the frozen views — all
// concurrently, checked under -race in CI.
func TestConcurrentMutateWhileQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/graphs/g/edges", map[string]any{"edges": [][]int32{{0, 1, 2}}})

	sdk := client.New(ts.URL)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int32(10 + w*100)
			for i := int32(0); i < 25; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/graphs/g/edges",
					map[string]any{"edges": [][]int32{{base + i, base + i + 1, int32(w)}}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: HTTP %d: %s", w, resp.StatusCode, body["error"])
					return
				}
				if i%4 == 0 {
					results := field[[]map[string]any](t, body, "results")
					id := int32(results[0]["id"].(float64))
					resp, _ := doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/graphs/g/edges/%d", ts.URL, id), nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d: delete HTTP %d", w, resp.StatusCode)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, _ := getJSON(t, ts.URL+"/v1/graphs/g/counts")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: HTTP %d", r, resp.StatusCode)
					return
				}
				if i%8 == 0 {
					resp, _ := postJSON(t, ts.URL+"/v1/graphs/g/snapshot", nil)
					if resp.StatusCode != http.StatusCreated {
						t.Errorf("reader %d: snapshot HTTP %d", r, resp.StatusCode)
						return
					}
					if _, err := sdk.Count(context.Background(), "g", api.CountRequest{Algorithm: api.AlgoEdge, Samples: 20, Seed: int64(i)}); err != nil {
						t.Errorf("reader %d: sampled count: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles the counts must equal a from-scratch recount
	// of whatever survived.
	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/snapshot", map[string]any{"as": "final"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final snapshot: HTTP %d", resp.StatusCode)
	}
	_ = body
	resp, frozen := runJob(t, ts.URL+"/v1/graphs/final/count", map[string]any{"algorithm": "exact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frozen exact count: HTTP %d", resp.StatusCode)
	}
	resp, livec := getJSON(t, ts.URL+"/v1/graphs/g/counts")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live counts: HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(frozen["counts"], livec["counts"]) {
		t.Fatalf("live counts %s != frozen recount-seeded counts %s", livec["counts"], frozen["counts"])
	}
}

// TestFailedBootstrapLeavesNoGraph checks that a request which creates a
// live graph but fails to apply any mutation rolls the creation back.
func TestFailedBootstrapLeavesNoGraph(t *testing.T) {
	ts, s := newTestServer(t)

	// Pure-delete PATCH on an unknown name must 404, not create.
	resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/graphs/typo", map[string]any{"deletes": []int32{1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pure-delete patch on unknown graph: HTTP %d, want 404", resp.StatusCode)
	}
	// A fully-failing insert batch must not leave an empty graph behind.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/typo/edges", map[string]any{"edges": [][]int32{{0, 2000000000}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bootstrap: HTTP %d, want 400", resp.StatusCode)
	}
	// Neither must a failing stream batch.
	respS, err := http.Post(ts.URL+"/v1/streams/typo", "application/x-ndjson", strings.NewReader("[-1,2]"))
	if err != nil {
		t.Fatal(err)
	}
	respS.Body.Close()
	if got := s.liveReg.Len(); got != 0 {
		t.Fatalf("live registry has %d graphs after failed bootstraps, want 0 (%v)", got, s.liveReg.Names())
	}
	// A partially-applied bootstrap keeps the graph (mutations happened).
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/part/edges",
		map[string]any{"edges": [][]int32{{0, 1}, {0, 2000000000}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial bootstrap: HTTP %d, want 400", resp.StatusCode)
	}
	if _, ok := s.liveReg.Get("part"); !ok {
		t.Fatal("partially-applied bootstrap was rolled back")
	}
}

// TestTrailingPathSegmentsRejected: only /edges takes a sub-path; stray
// segments after other actions are 404s, not silently ignored.
func TestTrailingPathSegmentsRejected(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(50))
	postJSON(t, ts.URL+"/v1/graphs/lg/edges", map[string]any{"edges": [][]int32{{0, 1}}})

	for _, path := range []string{
		"/v1/graphs/g/count/extra", "/v1/graphs/g/stats/xyz", "/v1/graphs/g/profile/1",
		"/v1/graphs/lg/counts/0", "/v1/graphs/lg/snapshot/now",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDeadGenerationNotRecached: a count finishing after its graph is
// deleted must not re-insert a cache entry the purge just removed.
func TestDeadGenerationNotRecached(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxConcurrent: 2, MaxWorkersPerJob: 2})
	defer s.Close()
	e, _ := s.registry.Load("g", benchGraph(51))
	s.registry.Delete("g")
	if _, err := runStage(s, e, api.StageCount, &api.CountRequest{Algorithm: algoExact, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache has %d entries for a deleted graph, want 0", n)
	}
}
