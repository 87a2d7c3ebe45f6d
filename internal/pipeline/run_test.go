package pipeline

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mochy/api"
	"mochy/internal/generator"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
)

// testPool admits everything; the executor's pool discipline is exercised
// against the real bounded pool in the server tests.
type testPool struct{}

func (testPool) Acquire(ctx context.Context) error { return ctx.Err() }
func (testPool) Release()                          {}

// mapCache is a plain locked map behind the executor's Cache hook
// (concurrent DAG branches hit it in parallel).
type mapCache struct {
	mu sync.Mutex
	m  map[string]any
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string]any)} }

func (c *mapCache) memo(ctx context.Context, key string, _ bool, compute func(context.Context) (any, time.Duration, error)) (any, bool, error) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return v, true, nil
	}
	v, _, err := compute(ctx)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v, false, nil
}

// testEnv binds a graph to stub infrastructure, counting how many times the
// count path is invoked.
func testEnv(g *hypergraph.Hypergraph, cache *mapCache) (*Env, *int) {
	proj := projection.Build(g)
	countCalls := new(int)
	env := &Env{
		Graph:      g,
		Proj:       func() projection.Projector { return proj },
		Name:       "g",
		GraphID:    "g#1",
		MaxWorkers: 2,
		Pool:       testPool{},
		Count: func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, error) {
			*countCalls++
			return counting.CountExact(g, proj, workers), nil
		},
	}
	if cache != nil {
		env.Cache = cache.memo
	}
	return env, countCalls
}

func testGraph(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	return generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 60, Edges: 220, Seed: 11})
}

func mustParse(t *testing.T, stages ...api.PipelineStage) *Plan {
	t.Helper()
	plan, err := Parse(&api.PipelineRequest{Stages: stages}, 0)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return plan
}

// TestNullModelSeedReproducible asserts the satellite requirement: the
// null-model stage's RNG is seeded from the plan, so replaying the same plan
// reproduces the same ensemble, the same means, and the same z-scores —
// under both null models — while a different seed produces a different
// ensemble. No cache is attached: this is recompute determinism, not replay
// from a cached value.
func TestNullModelSeedReproducible(t *testing.T) {
	g := testGraph(t)
	for _, model := range []string{api.NullModelChungLu, api.NullModelEdgeSwap} {
		t.Run(model, func(t *testing.T) {
			run := func(seed int64) api.SignificanceResult {
				env, _ := testEnv(g, nil)
				plan := mustParse(t,
					stage("count", "count", ""),
					stage("sig", "null_model", `{"model": "`+model+`", "randomizations": 2, "seed": `+jsonInt(seed)+`}`, "count"),
				)
				res, err := Run(context.Background(), env, plan)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				sig, err := res.Stages[1].SignificanceResult()
				if err != nil {
					t.Fatalf("decode significance: %v", err)
				}
				return sig
			}
			a, b := run(7), run(7)
			if !reflect.DeepEqual(a.Mean, b.Mean) || !reflect.DeepEqual(a.Z, b.Z) {
				t.Fatalf("same seed diverged:\n  mean %v vs %v\n  z %v vs %v", a.Mean, b.Mean, a.Z, b.Z)
			}
			c := run(8)
			if reflect.DeepEqual(a.Mean, c.Mean) {
				t.Fatalf("different seeds produced identical ensemble means %v", a.Mean)
			}
		})
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestRunEventOrdering asserts each stage brackets its work with stage_start
// / stage_done in topological order, with progress in between.
func TestRunEventOrdering(t *testing.T) {
	g := testGraph(t)
	env, _ := testEnv(g, nil)
	var events []api.JobEvent
	env.Events = func(ev api.JobEvent) { events = append(events, ev) }
	plan := mustParse(t,
		stage("rank", "rank", "", "sig"),
		stage("sig", "null_model", `{"randomizations": 2}`, "count"),
		stage("count", "count", ""),
	)
	if _, err := Run(context.Background(), env, plan); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var lifecycle []string
	for _, ev := range events {
		switch ev.Type {
		case api.EventStageStart, api.EventStageDone:
			lifecycle = append(lifecycle, ev.Type+":"+ev.Stage)
		case api.EventProgress:
			if ev.Stage == "" {
				t.Fatalf("pipeline progress event missing stage id: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	want := []string{
		"stage_start:count", "stage_done:count",
		"stage_start:sig", "stage_done:sig",
		"stage_start:rank", "stage_done:rank",
	}
	if !reflect.DeepEqual(lifecycle, want) {
		t.Fatalf("lifecycle events = %v, want %v", lifecycle, want)
	}
}

// TestRunPrefixCacheHit asserts the re-run economics the pipeline is built
// around: a second plan sharing the expensive prefix (same null model) but
// changing the final stage's configuration reuses the cached prefix results.
func TestRunPrefixCacheHit(t *testing.T) {
	g := testGraph(t)
	cache := newMapCache()
	env, _ := testEnv(g, cache)
	first := mustParse(t,
		stage("count", "count", ""),
		stage("sig", "null_model", `{"randomizations": 2}`, "count"),
		stage("rank", "rank", `{"top_k": 5}`, "sig"),
	)
	res1, err := Run(context.Background(), env, first)
	if err != nil {
		t.Fatalf("first Run: %v", err)
	}
	for _, st := range res1.Stages {
		if st.Cached {
			t.Fatalf("cold run reported stage %q cached", st.ID)
		}
	}
	// Same prefix, different rank config: null_model must hit, rank must
	// recompute.
	second := mustParse(t,
		stage("count", "count", ""),
		stage("sig", "null_model", `{"randomizations": 2}`, "count"),
		stage("rank", "rank", `{"top_k": 3, "weights": "motif"}`, "sig"),
	)
	res2, err := Run(context.Background(), env, second)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	byID := map[string]*api.StageResult{}
	for i := range res2.Stages {
		byID[res2.Stages[i].ID] = &res2.Stages[i]
	}
	if !byID["sig"].Cached {
		t.Fatalf("null_model stage missed the cache on an identical prefix")
	}
	if byID["rank"].Cached {
		t.Fatalf("rank stage with changed params reported a cache hit")
	}
	sig, err := byID["sig"].SignificanceResult()
	if err != nil {
		t.Fatalf("decode significance: %v", err)
	}
	if !sig.Cached {
		t.Fatalf("cached significance payload not marked cached")
	}
}

// TestNullModelReusesDependencyCounts asserts a null_model stage reads its
// real counts from a completed dependency count stage instead of recounting.
func TestNullModelReusesDependencyCounts(t *testing.T) {
	g := testGraph(t)
	env, countCalls := testEnv(g, nil)
	withDep := mustParse(t,
		stage("count", "count", ""),
		stage("sig", "null_model", `{"randomizations": 1}`, "count"),
	)
	if _, err := Run(context.Background(), env, withDep); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *countCalls != 1 {
		t.Fatalf("count path invoked %d times with a dependency count stage, want 1", *countCalls)
	}
	// Without the dependency the stage must fetch its own real counts.
	env2, countCalls2 := testEnv(g, nil)
	alone := mustParse(t, stage("sig", "null_model", `{"randomizations": 1}`))
	if _, err := Run(context.Background(), env2, alone); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *countCalls2 != 1 {
		t.Fatalf("standalone null_model invoked the count path %d times, want 1", *countCalls2)
	}
}

// TestRunStageFailureNamesStage asserts a failing stage aborts the run with
// an error naming the stage, and the job sees no partial payload for it.
func TestRunStageFailureNamesStage(t *testing.T) {
	g := testGraph(t) // untimed: the temporal stage must fail
	env, _ := testEnv(g, nil)
	plan := mustParse(t,
		stage("count", "count", ""),
		stage("windows", "temporal", `{"width": 10, "stride": 5}`, "count"),
	)
	res, err := Run(context.Background(), env, plan)
	if err == nil {
		t.Fatalf("Run succeeded on an untimed graph's temporal stage")
	}
	if !strings.Contains(err.Error(), `"windows"`) || !strings.Contains(err.Error(), "temporal") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if len(res.Stages) != 1 || res.Stages[0].ID != "count" {
		t.Fatalf("partial result = %+v, want just the completed count stage", res.Stages)
	}
}

// TestTemporalCapSpansFullInt64Range asserts the window cap holds when the
// graph's time range spans more than math.MaxInt64: hi-lo used to wrap
// negative and pass the cap, and the sweep then ran for 1.8e19 windows. The
// deadline turns a regression into a failure instead of a hang.
func TestTemporalCapSpansFullInt64Range(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.AddTimedEdge([]int32{0, 1}, -9e18)
	b.AddTimedEdge([]int32{1, 2}, 9e18)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build timed graph: %v", err)
	}
	env, _ := testEnv(g, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	_, err = Run(ctx, env, mustParse(t, stage("windows", "temporal", `{"width": 1, "stride": 1}`)))
	if err == nil || !strings.Contains(err.Error(), "cap of 4096 windows") {
		t.Fatalf("Run = %v, want the window cap's refusal", err)
	}
}

// TestRunAllStageKinds runs every operator once on one timed graph: the
// smoke test that the dormant analytics packages are actually reachable.
func TestRunAllStageKinds(t *testing.T) {
	src := testGraph(t)
	b := hypergraph.NewBuilder(src.NumNodes())
	for e := 0; e < src.NumEdges(); e++ {
		b.AddTimedEdge(src.Edge(e), int64(e%50))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build timed graph: %v", err)
	}
	env, _ := testEnv(g, newMapCache())
	plan := mustParse(t,
		stage("count", "count", ""),
		stage("sig", "null_model", `{"randomizations": 1}`, "count"),
		stage("rank", "rank", "", "count"),
		stage("anomaly", "anomaly", `{"top_k": 5}`, "count"),
		stage("cluster", "cluster", "", "count"),
		stage("windows", "temporal", `{"width": 25, "stride": 10}`, "count"),
		stage("profile", "profile", `{"randomizations": 1}`, "sig"),
	)
	res, err := Run(context.Background(), env, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Stages) != 7 {
		t.Fatalf("got %d stage results, want 7", len(res.Stages))
	}
	rank, err := res.Stages[2].RankResult()
	if err != nil || len(rank.Top) == 0 {
		t.Fatalf("rank result empty or undecodable: %+v err=%v", rank, err)
	}
	tw, err := res.Stages[5].TemporalResult()
	if err != nil || len(tw.Windows) == 0 {
		t.Fatalf("temporal result empty or undecodable: %+v err=%v", tw, err)
	}
	cl, err := res.Stages[4].ClusterResult()
	if err != nil || cl.Clusters == 0 {
		t.Fatalf("cluster result empty or undecodable: %+v err=%v", cl, err)
	}
}

// TestRunIndependentBranchesConcurrent asserts the DAG fan-out: two count
// stages with no dependency between them must be in flight at the same time.
// Each branch's count blocks until the other has arrived, so a sequential
// executor would stall the first stage and trip the timeout instead of
// finishing.
func TestRunIndependentBranchesConcurrent(t *testing.T) {
	g := testGraph(t)
	proj := projection.Build(g)
	arrived := make(chan struct{}, 2)
	proceed := make(chan struct{})
	env := &Env{
		Graph: g, Proj: func() projection.Projector { return proj }, Name: "g", GraphID: "g#1", MaxWorkers: 2,
		Pool: testPool{},
		Count: func(ctx context.Context, algo string, samples int, seed int64, workers int, progress func(done, total int)) (counting.Counts, error) {
			arrived <- struct{}{}
			select {
			case <-proceed:
			case <-time.After(10 * time.Second):
				return counting.Counts{}, context.DeadlineExceeded
			}
			return counting.CountExact(g, proj, workers), nil
		},
	}
	go func() {
		<-arrived
		<-arrived
		close(proceed)
	}()
	plan := mustParse(t,
		stage("left", "count", ""),
		stage("right", "count", ""),
	)
	res, err := Run(context.Background(), env, plan)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Stages) != 2 || res.Stages[0].ID != "left" || res.Stages[1].ID != "right" {
		t.Fatalf("stages = %+v, want left and right in declaration order", res.Stages)
	}
}

// TestRunParentCancellation asserts a cancelled parent context stops the plan
// before any further stage starts and surfaces the cancellation cause.
func TestRunParentCancellation(t *testing.T) {
	g := testGraph(t)
	env, countCalls := testEnv(g, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := mustParse(t, stage("count", "count", ""))
	_, err := Run(ctx, env, plan)
	if err == nil {
		t.Fatalf("Run succeeded under a cancelled context")
	}
	if *countCalls != 0 {
		t.Fatalf("count path invoked %d times under a cancelled context, want 0", *countCalls)
	}
}
