package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mochy/api"
	"mochy/internal/generator"
	"mochy/internal/testutil"
)

// pipelineReq builds the wire request for a list of stages, where each
// stage is "id kind params deps..." encoded positionally.
func pipelineStage(id, kind, params string, after ...string) api.PipelineStage {
	s := api.PipelineStage{ID: id, Kind: kind, After: after}
	if params != "" {
		s.Params = json.RawMessage(params)
	}
	return s
}

func startPipeline(t *testing.T, baseURL, graph string, stages ...api.PipelineStage) (string, *http.Response) {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/graphs/"+graph+"/pipeline", api.PipelineRequest{Stages: stages})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start pipeline: HTTP %d", resp.StatusCode)
	}
	return field[string](t, body, "id"), resp
}

func waitPipelineJob(t *testing.T, baseURL, id string) api.PipelineResult {
	t.Helper()
	j := waitJob(t, baseURL, id)
	if j.State != api.JobDone {
		t.Fatalf("pipeline job failed: %s", j.Error)
	}
	out, err := j.PipelineResult()
	if err != nil {
		t.Fatalf("decode pipeline result: %v", err)
	}
	return out
}

// TestPipelineRejections: a malformed plan never reaches the job pool —
// the handler answers 400 with a diagnostic naming the defect, and an
// unknown graph answers 404.
func TestPipelineRejections(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(71))

	cases := []struct {
		name    string
		graph   string
		stages  []api.PipelineStage
		status  int
		wantErr string
	}{
		{"unknown graph", "ghost",
			[]api.PipelineStage{pipelineStage("", "count", "")},
			http.StatusNotFound, "not found"},
		{"empty plan", "g", nil, http.StatusBadRequest, "no stages"},
		{"unknown stage kind", "g",
			[]api.PipelineStage{pipelineStage("", "frobnicate", "")},
			http.StatusBadRequest, "unknown stage kind"},
		{"dependency cycle", "g",
			[]api.PipelineStage{
				pipelineStage("a", "count", "", "b"),
				pipelineStage("b", "rank", "", "a"),
			},
			http.StatusBadRequest, "dependency cycle"},
		{"undeclared dependency", "g",
			[]api.PipelineStage{pipelineStage("r", "rank", "", "ghost")},
			http.StatusBadRequest, "undeclared stage"},
		{"bad params", "g",
			[]api.PipelineStage{pipelineStage("", "rank", `{"damping": 2.0}`)},
			http.StatusBadRequest, "damping must be in"},
		{"unknown param field", "g",
			[]api.PipelineStage{pipelineStage("", "rank", `{"dampling": 0.9}`)},
			http.StatusBadRequest, "invalid params"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/graphs/"+tc.graph+"/pipeline",
				api.PipelineRequest{Stages: tc.stages})
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.status)
			}
			if msg := field[string](t, body, "error"); !strings.Contains(msg, tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", msg, tc.wantErr)
			}
		})
	}
}

// TestPipelineMaxStagesConfig: the -pipeline-max-stages cap is enforced
// per plan at admission time.
func TestPipelineMaxStagesConfig(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxConcurrent: 2, MaxWorkersPerJob: 4, PipelineMaxStages: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	loadGraph(t, ts.URL, "g", benchGraph(72))

	resp, body := postJSON(t, ts.URL+"/v1/graphs/g/pipeline", api.PipelineRequest{Stages: []api.PipelineStage{
		pipelineStage("a", "count", ""),
		pipelineStage("b", "rank", "", "a"),
		pipelineStage("c", "anomaly", "", "a"),
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	if msg := field[string](t, body, "error"); !strings.Contains(msg, "cap of 2") {
		t.Fatalf("error = %q, want the stage cap named", msg)
	}

	// At the cap the plan is admitted.
	id, _ := startPipeline(t, ts.URL, "g",
		pipelineStage("a", "count", ""),
		pipelineStage("b", "rank", "", "a"),
	)
	waitPipelineJob(t, ts.URL, id)
}

// TestPipelineJobEndToEnd runs a three-stage plan through the async job
// machinery and asserts the NDJSON stream brackets every stage in
// topological order, the terminal result carries all three payloads, and
// the per-stage duration histogram was fed.
func TestPipelineJobEndToEnd(t *testing.T) {
	s := New(Config{CacheSize: 64, MaxConcurrent: 1, MaxWorkersPerJob: 4})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	loadGraph(t, ts.URL, "g", benchGraph(73))

	// Park the only pool slot so the first stage blocks at admission; the
	// events subscription is then racing only the job's very first
	// stage_start emit, and everything after the release is captured.
	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			s.pool.Release()
		}
	}()

	id, resp := startPipeline(t, ts.URL, "g",
		pipelineStage("rank", "rank", `{"top_k": 5}`, "sig"),
		pipelineStage("sig", "null_model", `{"randomizations": 2, "seed": 7}`, "count"),
		pipelineStage("count", "count", ""),
	)
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+id {
		t.Fatalf("Location = %q", loc)
	}

	evResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != api.ContentTypeNDJSON {
		t.Fatalf("events Content-Type = %q", ct)
	}

	s.pool.Release()
	released = true

	var lifecycle []string
	var sawProgress, sawResult bool
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev api.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case api.EventStageStart, api.EventStageDone:
			if ev.Kind == "" {
				t.Fatalf("lifecycle event missing kind: %+v", ev)
			}
			lifecycle = append(lifecycle, ev.Type+":"+ev.Stage)
		case api.EventProgress:
			if ev.Stage == "" {
				t.Fatalf("pipeline progress event missing stage id: %+v", ev)
			}
			sawProgress = true
		case api.EventResult:
			sawResult = true
		case api.EventError:
			t.Fatalf("pipeline failed: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawResult {
		t.Fatal("stream ended without a terminal result event")
	}
	if !sawProgress {
		t.Fatal("no per-stage progress events observed")
	}
	// The subscription may have missed the very first stage_start (emitted
	// before the stream attached); everything else must be exact and in
	// topological order.
	want := []string{
		"stage_start:count", "stage_done:count",
		"stage_start:sig", "stage_done:sig",
		"stage_start:rank", "stage_done:rank",
	}
	if len(lifecycle) == len(want)-1 {
		want = want[1:]
	}
	if strings.Join(lifecycle, ",") != strings.Join(want, ",") {
		t.Fatalf("lifecycle events = %v, want %v", lifecycle, want)
	}

	res := waitPipelineJob(t, ts.URL, id)
	if res.Graph != "g" || len(res.Stages) != 3 {
		t.Fatalf("pipeline result = %+v, want 3 stages on g", res)
	}
	sig, err := res.Stages[1].SignificanceResult()
	if err != nil || sig.Randomizations != 2 || sig.Seed != 7 {
		t.Fatalf("significance payload = %+v (%v)", sig, err)
	}
	rank, err := res.Stages[2].RankResult()
	if err != nil || len(rank.Top) != 5 {
		t.Fatalf("rank payload = %+v (%v)", rank, err)
	}

	// The span-duration histogram saw all three stage kinds.
	metResp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, err := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"count", "null_model", "rank"} {
		marker := `mochyd_span_duration_seconds_count{name="stage.` + kind + `"}`
		if !strings.Contains(string(met), marker) {
			t.Errorf("metrics exposition missing %s", marker)
		}
		if strings.Contains(string(met), marker+" 0") {
			t.Errorf("stage %q histogram never observed a sample", kind)
		}
	}
}

// TestPipelinePrefixCacheAcrossJobs is the acceptance bar: a second plan
// sharing the count → null_model prefix but changing the rank stage reuses
// the cached prefix results instead of recomputing the ensemble.
func TestPipelinePrefixCacheAcrossJobs(t *testing.T) {
	ts, _ := newTestServer(t)
	loadGraph(t, ts.URL, "g", benchGraph(74))

	prefix := func(rankParams string) []api.PipelineStage {
		return []api.PipelineStage{
			pipelineStage("count", "count", ""),
			pipelineStage("sig", "null_model", `{"randomizations": 2, "seed": 3}`, "count"),
			pipelineStage("rank", "rank", rankParams, "sig"),
		}
	}

	id1, _ := startPipeline(t, ts.URL, "g", prefix(`{"top_k": 5}`)...)
	res1 := waitPipelineJob(t, ts.URL, id1)
	for _, st := range res1.Stages {
		if st.Cached {
			t.Fatalf("cold run reported stage %q cached", st.ID)
		}
	}

	id2, _ := startPipeline(t, ts.URL, "g", prefix(`{"top_k": 3, "weights": "motif"}`)...)
	res2 := waitPipelineJob(t, ts.URL, id2)
	byID := map[string]*api.StageResult{}
	for i := range res2.Stages {
		byID[res2.Stages[i].ID] = &res2.Stages[i]
	}
	if !byID["count"].Cached {
		t.Error("count stage missed the shared result cache on re-run")
	}
	if !byID["sig"].Cached {
		t.Error("null_model stage missed the cache on an identical prefix")
	}
	if byID["rank"].Cached {
		t.Error("rank stage with changed params reported a cache hit")
	}

	// Reloading the graph bumps its generation; the old prefix entries
	// must not serve the new graph.
	loadGraph(t, ts.URL, "g", benchGraph(75))
	id3, _ := startPipeline(t, ts.URL, "g", prefix(`{"top_k": 5}`)...)
	res3 := waitPipelineJob(t, ts.URL, id3)
	for _, st := range res3.Stages {
		if st.Cached {
			t.Fatalf("stage %q served a stale generation from the cache", st.ID)
		}
	}
}

// TestPipelineBackpressure429: pipeline admission inherits the queue-age
// backpressure contract — 429 plus Retry-After once the pool is saturated
// past the budget.
func TestPipelineBackpressure429(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxConcurrent: 1, MaxWorkersPerJob: 2, QueueBudget: time.Millisecond})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	loadGraph(t, ts.URL, "g", benchGraph(76))

	if err := s.pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.Release()
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	go func() {
		if err := s.pool.Acquire(waiterCtx); err == nil {
			s.pool.Release()
		}
	}()
	testutil.Eventually(t, 2*time.Second, func() bool { return s.pool.Waiting() > 0 }, "waiter never queued")
	//lint:ignore sleepytest not synchronization — the queue must age past the 1ms backpressure budget, which only wall-clock time can do
	time.Sleep(5 * time.Millisecond)

	body := `{"stages": [{"kind": "count"}]}`
	resp, err := http.Post(ts.URL+"/v1/graphs/g/pipeline", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

// TestPipelineAnomalyStopsOnClose: Server.Close cancels an anomaly stage
// inside its per-edge counting kernel, so the job fails with the
// cancellation instead of running the count to completion.
func TestPipelineAnomalyStopsOnClose(t *testing.T) {
	s := New(Config{CacheSize: 16, MaxConcurrent: 1, MaxWorkersPerJob: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()
	// A dense tags-like graph: uncancelled, its per-edge count runs for
	// several seconds even on one fast core.
	g := generator.Generate(generator.Config{Domain: generator.Tags, Nodes: 300, Edges: 1500, Seed: 1})
	if _, err := s.LoadGraph("dense", g); err != nil {
		t.Fatal(err)
	}
	id, _ := startPipeline(t, ts.URL, "dense", pipelineStage("a", "anomaly", `{"top_k": 3}`))
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	// The stage takes the only pool slot right before it enters the kernel.
	testutil.Eventually(t, 30*time.Second, func() bool { return s.pool.Active() == 1 }, "anomaly stage never started")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.doneCh:
	case <-time.After(20 * time.Second):
		t.Fatal("anomaly stage kept running after Server.Close")
	}
	if snap := j.snapshot(); snap.State != api.JobFailed {
		t.Fatalf("job state = %s, want %s", snap.State, api.JobFailed)
	}
}
