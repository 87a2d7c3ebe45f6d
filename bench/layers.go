package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mochy/api"
	"mochy/internal/cp"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/nullmodel"
	"mochy/internal/projection"
	"mochy/internal/server"
	"mochy/internal/server/live"
	"mochy/internal/store"
)

// layers is the in-process replay target of a traced run: bench-owned
// instances of the daemon's components, with every call into a layer's
// public function wrapped in a span and the layer's work counted where it
// happens. It mirrors what mochyd does for each request, minus HTTP and
// the job protocol.
type layers struct {
	tr      *tracer
	workers int
	reg     *server.Registry
	cache   *server.Cache
	pool    *server.Pool
	st      *store.Store   // nil unless the workload is durable
	live    *live.Registry // nil unless the workload is durable
	jrns    []*tracedJournal

	// Work counted at the layer boundaries.
	encodedBytes  int64
	projAlloc     uint64
	neighborBytes int64
	kernAlloc     uint64
	wedges        int64
	instances     float64
	steals        int64
	imbalance     []float64
	samples       int64
	copies        int
	relErr        []float64
	domainGaps    []float64
	profiles      []cp.Profile // the current round's, until it completes
}

func newLayers(tr *tracer) *layers {
	workers := runtime.GOMAXPROCS(0)
	return &layers{
		tr:      tr,
		workers: workers,
		reg:     server.NewRegistry(),
		cache:   server.NewCache(server.DefaultConfig().CacheSize),
		pool:    server.NewPool(workers),
	}
}

// openStore makes the replay durable: a store in dir, and a live registry
// whose graphs journal through it.
func (l *layers) openStore(dir string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	if _, err := st.Recover(); err != nil {
		st.Close()
		return err
	}
	l.st = st
	l.live = live.NewRegistry(0, 0)
	l.live.SetJournalFactory(func(name string) (live.Journal, error) {
		j, err := st.CreateLive(name)
		if err != nil {
			return nil, err
		}
		tj := &tracedJournal{Journal: j, tr: l.tr}
		l.jrns = append(l.jrns, tj)
		return tj, nil
	})
	return nil
}

// close stops live graphs and flushes the store.
func (l *layers) close() error {
	l.pool.Close()
	if l.live != nil {
		l.live.Close()
	}
	if l.st != nil {
		return l.st.Close()
	}
	return nil
}

func (l *layers) encode(g *hypergraph.Hypergraph) ([]byte, error) {
	defer l.tr.start("api.EncodeGraph")()
	b, err := api.EncodeGraph(g)
	l.encodedBytes += int64(len(b))
	return b, err
}

func (l *layers) decode(b []byte) (*hypergraph.Hypergraph, error) {
	defer l.tr.start("api.ReadGraph")()
	return api.ReadGraph(bytes.NewReader(b), 0, 0)
}

func (l *layers) load(name string, g *hypergraph.Hypergraph) *server.Entry {
	defer l.tr.start("server.Registry.Load")()
	e, _ := l.reg.Load(name, g)
	return e
}

func (l *layers) lookup(name string) (*server.Entry, bool) {
	defer l.tr.start("server.Registry.Get")()
	return l.reg.Get(name)
}

func (l *layers) cacheGet(key string) (any, bool) {
	defer l.tr.start("server.Cache.Get")()
	return l.cache.Get(key)
}

func (l *layers) cachePut(key string, val any, cost time.Duration) {
	defer l.tr.start("server.Cache.PutCost")()
	l.cache.PutCost(key, val, 0, cost)
}

func (l *layers) acquire(ctx context.Context) error {
	defer l.tr.start("server.Pool.Acquire")()
	return l.pool.Acquire(ctx)
}

func (l *layers) release() { l.pool.Release() }

func (l *layers) build(g *hypergraph.Hypergraph) *projection.Projected {
	a0 := allocatedBytes()
	end := l.tr.start("projection.Build")
	p := projection.Build(g)
	end()
	l.projAlloc += allocatedBytes() - a0
	// Every hyperwedge appears in the adjacency of both its hyperedges, as
	// one 8-byte Neighbor each.
	l.neighborBytes += 2 * p.NumWedges() * 8
	return p
}

// countExact runs MoCHy-E with the daemon's default worker count and
// records the kernel's phases as child spans.
func (l *layers) countExact(ctx context.Context, g *hypergraph.Hypergraph, p *projection.Projected) (counting.Counts, error) {
	a0 := allocatedBytes()
	end := l.tr.start("mochy.CountExactOpts")
	t0 := time.Now()
	c, stats, err := counting.CountExactOpts(ctx, g, p, counting.Options{Workers: l.workers})
	setupEnd := t0.Add(stats.Setup)
	enumEnd := setupEnd.Add(stats.Enumerate)
	l.tr.add("kernel.setup", t0, setupEnd)
	l.tr.add("kernel.enumerate", setupEnd, enumEnd)
	l.tr.add("kernel.merge", enumEnd, enumEnd.Add(stats.Merge))
	end()
	l.kernAlloc += allocatedBytes() - a0
	l.wedges += p.NumWedges()
	l.instances += c.Total()
	l.steals += stats.Steals
	l.imbalance = append(l.imbalance, stats.Imbalance)
	return c, err
}

func (l *layers) countWedges(ctx context.Context, g *hypergraph.Hypergraph, p *projection.Projected, r int, seed int64) (counting.Counts, error) {
	defer l.tr.start("mochy.CountWedgeSamplesCtx")()
	l.samples += int64(r)
	return counting.CountWedgeSamplesCtx(ctx, g, p, p, r, seed, l.workers)
}

// profile computes a characteristic profile the way the daemon's profile
// job does once it holds the real graph's counts: generate the Chung-Lu
// copies, project and count each one, then combine.
func (l *layers) profile(ctx context.Context, g *hypergraph.Hypergraph, real *counting.Counts, n int, seed int64) (cp.Profile, error) {
	end := l.tr.start("nullmodel.GenerateN")
	copies := nullmodel.NewRandomizer(g).GenerateN(n, seed)
	end()
	randomized := make([]*counting.Counts, len(copies))
	for i, cg := range copies {
		end := l.tr.start("nullmodel.copy")
		c, err := l.countExact(ctx, cg, l.build(cg))
		end()
		if err != nil {
			return cp.Profile{}, err
		}
		randomized[i] = &c
		l.copies++
	}
	defer l.tr.start("cp.Compute")()
	return cp.Compute(real, randomized), nil
}

func (l *layers) apply(g *live.Graph, ops []live.Op) (live.BatchResult, error) {
	defer l.tr.start("live.Graph.Apply")()
	return g.Apply(ops)
}

func (l *layers) liveCounts(g *live.Graph) (counting.Counts, error) {
	defer l.tr.start("live.Graph.Counts")()
	c, _, err := g.Counts()
	return c, err
}

func (l *layers) putGraph(name string, gen uint64, g *hypergraph.Hypergraph) error {
	defer l.tr.start("store.Store.PutGraph")()
	return l.st.PutGraph(name, gen, g)
}

// tracedJournal wraps the write-ahead log a store hands a live graph, so
// appends (run on the graph's apply loop) and group commits (run by the
// mutating caller) get spans of their own.
type tracedJournal struct {
	live.Journal
	tr *tracer
}

func (j *tracedJournal) Append(recs []live.Rec) (uint64, error) {
	defer j.tr.start("store.Journal.Append")()
	return j.Journal.Append(recs)
}

func (j *tracedJournal) Commit(seq uint64) error {
	defer j.tr.start("store.Journal.Commit")()
	return j.Journal.Commit(seq)
}

// walBytes sums the bytes appended to every traced journal.
func (l *layers) walBytes() int64 {
	var n int64
	for _, j := range l.jrns {
		n += j.Size()
	}
	return n
}

// countKey and profileKey name results in the replay's cache the way the
// daemon keys its own.
func countKey(e *server.Entry, algo string, samples int, seed int64) string {
	if algo == api.AlgoExact {
		return fmt.Sprintf("count|%s#%d|%s", e.Name, e.Gen, algo)
	}
	return fmt.Sprintf("count|%s#%d|%s|s=%d|seed=%d", e.Name, e.Gen, algo, samples, seed)
}

func profileKey(e *server.Entry, n int, seed int64) string {
	return fmt.Sprintf("profile|%s#%d|n=%d|seed=%d", e.Name, e.Gen, n, seed)
}

// layerMetrics derives the per-layer metrics of a traced replay from its
// spans and the counts gathered at the layer boundaries. Times are span
// totals over the replay unless named as a percentile; a layer the
// workload does not exercise reports 0.
func layerMetrics(spans []span, l *layers, hitRatio float64) map[string]metric {
	// Set-up calls (persisting the graphs, seeding the live graph) are
	// spans of their own trace; only store.put_graph_ms reads them.
	index := func(stats []*layerStat) map[string]*layerStat {
		by := map[string]*layerStat{}
		for _, s := range stats {
			by[s.name] = s
		}
		return by
	}
	all := layerStats(spans)
	by := index(layerStats(withoutTrace(spans, "setup")))
	busy := func(name string) float64 {
		if s := by[name]; s != nil {
			return ms(s.busy)
		}
		return 0
	}
	pct := func(name string, q float64) float64 { // ms
		if s := by[name]; s != nil {
			return s.p(q)
		}
		return 0
	}
	putGraph := 0.0
	if s := index(all)["store.Store.PutGraph"]; s != nil {
		putGraph = s.p(50)
	}
	var selfSum time.Duration
	for _, s := range all {
		selfSum += s.self
	}
	rootSum := rootTotal(spans, "")
	coverage := 0.0
	if rootSum > 0 {
		coverage = float64(selfSum) / float64(rootSum)
	}
	nsPerSample := 0.0
	if l.samples > 0 {
		nsPerSample = busy("mochy.CountWedgeSamplesCtx") * 1e6 / float64(l.samples)
	}
	m := map[string]metric{
		"api.encode_ms":             {busy("api.EncodeGraph"), "ms"},
		"api.decode_ms":             {busy("api.ReadGraph"), "ms"},
		"api.bytes":                 {float64(l.encodedBytes), "bytes"},
		"server.registry_load_ms":   {busy("server.Registry.Load"), "ms"},
		"server.cache_get_p50_us":   {1000 * pct("server.Cache.Get", 50), "us"},
		"server.cache_get_p99_us":   {1000 * pct("server.Cache.Get", 99), "us"},
		"server.cache.hit_ratio":    {hitRatio, "ratio"},
		"server.pool.wait_p99_ms":   {pct("server.Pool.Acquire", 99), "ms"},
		"projection.build_ms":       {busy("projection.Build"), "ms"},
		"projection.alloc_mb":       {float64(l.projAlloc) / 1e6, "MB"},
		"projection.neighbor_bytes": {float64(l.neighborBytes), "bytes"},
		"kernel.setup_ms":           {busy("kernel.setup"), "ms"},
		"kernel.enumerate_ms":       {busy("kernel.enumerate"), "ms"},
		"kernel.merge_ms":           {busy("kernel.merge"), "ms"},
		"kernel.imbalance":          {mean(l.imbalance), "ratio"},
		"kernel.steals":             {float64(l.steals), "count"},
		"kernel.wedges":             {float64(l.wedges), "count"},
		"kernel.instances":          {l.instances, "count"},
		"kernel.alloc_mb":           {float64(l.kernAlloc) / 1e6, "MB"},
		"kernel.sample_ms":          {busy("mochy.CountWedgeSamplesCtx"), "ms"},
		"kernel.samples":            {float64(l.samples), "count"},
		"kernel.ns_per_sample":      {nsPerSample, "ns"},
		"kernel.rel_err":            {mean(l.relErr), "ratio"},
		"nullmodel.generate_ms":     {busy("nullmodel.GenerateN"), "ms"},
		"nullmodel.copies":          {float64(l.copies), "count"},
		"nullmodel.copy_count_ms":   {busy("nullmodel.copy"), "ms"},
		"cp.compute_us":             {1000 * busy("cp.Compute"), "us"},
		"cp.domain_gap":             {mean(l.domainGaps), "ratio"},
		"live.apply_p50_us":         {1000 * pct("live.Graph.Apply", 50), "us"},
		"live.apply_p99_us":         {1000 * pct("live.Graph.Apply", 99), "us"},
		"live.counts_us":            {1000 * pct("live.Graph.Counts", 50), "us"},
		"store.wal_append_p50_us":   {1000 * pct("store.Journal.Append", 50), "us"},
		"store.wal_append_p99_us":   {1000 * pct("store.Journal.Append", 99), "us"},
		"store.wal_commit_p50_us":   {1000 * pct("store.Journal.Commit", 50), "us"},
		"store.wal_commit_p99_us":   {1000 * pct("store.Journal.Commit", 99), "us"},
		"store.wal_bytes":           {float64(l.walBytes()), "bytes"},
		"store.put_graph_ms":        {putGraph, "ms"},
		"trace.busy_ms":             {ms(rootTotal(spans, "op.")), "ms"},
		"trace.self_coverage":       {coverage, "ratio"},
	}
	overhead := overheads(spans)
	for _, cls := range overheadClasses {
		m["server.http_overhead."+cls+"_ms"] = metric{percentile(overhead[cls], 50), "ms"}
	}
	return m
}

// overheadClasses are the op classes of every workload.
var overheadClasses = []string{"upload_exact", "upload_sample", "profile", "read", "mutate", "sample"}
