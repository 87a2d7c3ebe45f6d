package server

import (
	"context"
	"net/http/httptest"
	"testing"

	"mochy/api"
	"mochy/client"
	"mochy/internal/generator"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
	"mochy/internal/store"
)

// newDurableServer stands up a Server backed by a store on dir, recovered
// and serving over HTTP. Closing the returned httptest server does NOT
// close the Server — crash tests abandon it instead.
func newDurableServer(t *testing.T, dir string) (*httptest.Server, *Server, *client.Client) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	s := New(Config{CacheSize: 64, MaxConcurrent: 4, MaxWorkersPerJob: 8, Store: st})
	if _, err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, client.New(ts.URL)
}

// TestServerRecoveryAfterCrash is the acceptance scenario at handler level:
// an immutable upload, a counted graph, and a mutated live graph all
// survive an unclean stop (no Close — the only durability the server gets
// is what each acknowledged request already forced to disk).
func TestServerRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, _, c := newDurableServer(t, dir)

	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 80, Edges: 240, Seed: 21})
	if _, err := c.UploadGraph(ctx, "web", g); err != nil {
		t.Fatalf("upload: %v", err)
	}
	countRes, err := c.Count(ctx, "web", api.CountRequest{Algorithm: api.AlgoExact, Workers: 2})
	if err != nil {
		t.Fatalf("count: %v", err)
	}

	ins, err := c.InsertEdges(ctx, "feed", [][]int32{{0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {0, 4, 6}})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := c.DeleteEdge(ctx, "feed", ins.Results[1].ID); err != nil {
		t.Fatalf("delete edge: %v", err)
	}
	liveWant, err := c.LiveCounts(ctx, "feed")
	if err != nil {
		t.Fatal(err)
	}

	// Crash: abandon the server (no Close, no WAL flush beyond what the
	// acknowledged requests already committed) and restart on the same dir.
	ts.Close()
	ts2, s2, c2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer s2.Close()

	// The immutable graph is back, byte-identical.
	got, err := c2.DownloadGraph(ctx, "web")
	if err != nil {
		t.Fatalf("download after restart: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("recovered graph shape %d/%d, want %d/%d", got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}

	// Its exact count is served from the recovered seed — a cache hit, no
	// recount job.
	res, err := c2.Count(ctx, "web", api.CountRequest{Algorithm: api.AlgoExact, Workers: 2})
	if err != nil {
		t.Fatalf("count after restart: %v", err)
	}
	if !res.Cached {
		t.Fatal("recovered exact count was recomputed, want cache seed from the counts sidecar")
	}
	for i, v := range res.Counts {
		if v != countRes.Counts[i] {
			t.Fatalf("counts[%d] = %v, want %v", i, v, countRes.Counts[i])
		}
	}

	// The live graph is back with version, edges and counts intact, and
	// matches a fresh MoCHy-E recount of its edge set.
	liveGot, err := c2.LiveCounts(ctx, "feed")
	if err != nil {
		t.Fatalf("live counts after restart: %v", err)
	}
	if liveGot.Version != liveWant.Version || liveGot.Edges != liveWant.Edges {
		t.Fatalf("live state = v%d/%d edges, want v%d/%d", liveGot.Version, liveGot.Edges, liveWant.Version, liveWant.Edges)
	}
	for i, v := range liveGot.Counts {
		if v != liveWant.Counts[i] {
			t.Fatalf("live counts[%d] = %v, want %v", i, v, liveWant.Counts[i])
		}
	}
	snap, err := c2.Snapshot(ctx, "feed", "feed-frozen")
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := c2.DownloadGraph(ctx, "feed-frozen")
	if err != nil {
		t.Fatal(err)
	}
	want := counting.CountExact(frozen, projection.Build(frozen), 1)
	for i, v := range liveGot.Counts {
		if v != want[i] {
			t.Fatalf("recovered live counts[%d] = %v, recount says %v (snapshot v%d)", i, v, want[i], snap.Version)
		}
	}

	// Mutations keep flowing after recovery, ids intact.
	if _, err := c2.InsertEdges(ctx, "feed", [][]int32{{7, 8, 9}}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestDeletePurgesDurableState: DELETE /v1/graphs/{name} must reclaim the
// segment, counts sidecar, live base and WAL so a restart cannot resurrect
// the graph (the storage-leak satellite).
func TestDeletePurgesDurableState(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, s, c := newDurableServer(t, dir)

	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 40, Edges: 90, Seed: 5})
	if _, err := c.UploadGraph(ctx, "doomed", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertEdges(ctx, "doomed", [][]int32{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	del, err := c.DeleteGraph(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if !del.Static || !del.Live {
		t.Fatalf("delete = %+v, want both static and live", del)
	}
	status, err := c.StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Graphs != 0 || status.LiveGraphs != 0 || status.SegmentBytes != 0 {
		t.Fatalf("store still holds state after delete: %+v", status)
	}

	ts.Close()
	s.Close()
	ts2, s2, c2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer s2.Close()
	graphs, err := c2.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs.Graphs) != 0 || len(graphs.Live) != 0 {
		t.Fatalf("deleted graph resurrected: %+v", graphs)
	}
}

// TestCheckpointEndpointCompacts drives /v1/admin/checkpoint end to end:
// after the checkpoint, a restart replays only the post-checkpoint delta
// and the estimator state survives.
func TestCheckpointEndpointCompacts(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, s, c := newDurableServer(t, dir)

	edges := make([][]int32, 0, 40)
	for i := int32(0); i < 40; i++ {
		edges = append(edges, []int32{i, i + 1, i + 2})
	}
	if _, err := c.IngestEdges(ctx, "hot", edges, client.IngestOptions{Capacity: 500, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	cp, err := c.Checkpoint(ctx)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if len(cp.Checkpointed) != 1 || cp.Checkpointed[0].Error != "" {
		t.Fatalf("checkpoint result = %+v", cp)
	}
	if cp.Checkpointed[0].Edges != 40 || cp.Checkpointed[0].ReplayFrom != 2 {
		t.Fatalf("checkpoint entry = %+v", cp.Checkpointed[0])
	}
	// Post-checkpoint delta.
	if _, err := c.InsertEdges(ctx, "hot", [][]int32{{100, 101, 102}}); err != nil {
		t.Fatal(err)
	}
	before, err := c.StreamState(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}

	ts.Close() // crash
	ts2, s2, c2 := newDurableServer(t, dir)
	defer ts2.Close()
	defer s2.Close()
	_ = s

	status, err := c2.StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.RecoveredRecords != 1 {
		t.Fatalf("recovery replayed %d wal records, want 1 (base absorbed the rest)", status.RecoveredRecords)
	}
	after, err := c2.StreamState(ctx, "hot")
	if err != nil {
		t.Fatalf("estimator lost: %v", err)
	}
	if after.Version != before.Version || after.Edges != before.Edges {
		t.Fatalf("recovered %+v, want version %d / %d edges", after, before.Version, before.Edges)
	}
	if after.Estimator == nil || after.Estimator.EdgesSeen != before.Estimator.EdgesSeen {
		t.Fatalf("estimator state = %+v, want %+v", after.Estimator, before.Estimator)
	}
	for i, v := range after.Counts {
		if v != before.Counts[i] {
			t.Fatalf("counts[%d] = %v, want %v", i, v, before.Counts[i])
		}
	}
}

// TestCheckpointWithoutStore: the admin surface degrades cleanly on an
// in-memory server.
func TestCheckpointWithoutStore(t *testing.T) {
	ts, _ := newTestServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.Checkpoint(ctx); err == nil {
		t.Fatal("checkpoint without -data-dir should fail")
	}
	status, err := c.StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Enabled {
		t.Fatal("store reported enabled without a data dir")
	}
}

// TestRollbackDropsWAL: a bootstrap request that applies nothing must not
// leave an empty WAL family (and manifest entry) behind.
func TestRollbackDropsWAL(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, s, c := newDurableServer(t, dir)
	defer ts.Close()
	defer s.Close()

	// All-duplicate batch onto a fresh name: first op fails, graph rolls back.
	if _, err := c.InsertEdges(ctx, "ghost", [][]int32{{-1, 2}}); err == nil {
		t.Fatal("invalid insert should fail")
	}
	status, err := c.StoreStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.LiveGraphs != 0 {
		t.Fatalf("rolled-back graph left %d live wal families", status.LiveGraphs)
	}
}

// TestMetricsExposeStoreAndHistograms: the observability satellite — job
// span durations and persistence gauges ride /v1/metrics.
func TestMetricsExposeStoreAndHistograms(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, s, c := newDurableServer(t, dir)
	defer ts.Close()
	defer s.Close()

	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 40, Edges: 120, Seed: 8})
	if _, err := c.UploadGraph(ctx, "m", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "m", api.CountRequest{Algorithm: api.AlgoExact, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertEdges(ctx, "lm", [][]int32{{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mochyd_span_duration_seconds_bucket{name="job.count",le="+Inf"} 1`,
		`mochyd_span_duration_seconds_count{name="job.count"} 1`,
		"mochyd_store_enabled 1",
		"mochyd_store_segments 1",
		"mochyd_store_live_wals 1",
		"mochyd_store_wal_records_total 1",
	} {
		if !contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func contains(body, want string) bool {
	for i := 0; i+len(want) <= len(body); i++ {
		if body[i:i+len(want)] == want {
			return true
		}
	}
	return false
}
