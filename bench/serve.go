package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
	"mochy/internal/server/live"
)

// Serve-mixed parameters.
const (
	serveRate      = 400.0 // offered load, ops/s
	liveName       = "live-coauth"
	liveSeedEdges  = 2000
	sampleBudget   = 2000 // MoCHy-A+ samples per sample op
	seedBatch      = 500  // hyperedges per insert request while seeding
	serveTraceOps  = 1000
	sampleGraph    = 0 // index of contact-primary in serve.graphs
	maxInsertBatch = 4
)

// serveDatasets are the static graphs of serve-mixed: reads hit their
// cached exact counts and stats, samples run on the first.
var serveDatasets = []string{"contact-primary", "coauth-history", "email-Enron"}

// opKind is one serve-mixed operation type.
type opKind int

const (
	readCount opKind = iota // cached exact count of a static graph
	readLive                // the live graph's maintained counts
	readStats               // a static graph's structural stats
	insertOp                // insert 1-4 fresh hyperedges into the live graph
	deleteOp                // delete one live hyperedge
	sampleOp                // cold MoCHy-A+ estimate with a fresh seed
)

// pickKind draws an op type: reads 60% (cached counts 40, live counts 10,
// stats 10), mutations 30% (inserts 15, deletes 15), samples 10%.
func pickKind(rng *rand.Rand) opKind {
	switch x := rng.Intn(100); {
	case x < 40:
		return readCount
	case x < 50:
		return readLive
	case x < 60:
		return readStats
	case x < 75:
		return insertOp
	case x < 90:
		return deleteOp
	default:
		return sampleOp
	}
}

func (k opKind) class() string {
	switch k {
	case readCount, readLive, readStats:
		return "read"
	case insertOp, deleteOp:
		return "mutate"
	default:
		return "sample"
	}
}

// serveOp is one scheduled operation. Everything about it, including the
// ids a delete targets, is fixed when the stream is generated: mutations
// apply in stream order and live ids are assigned sequentially, so the
// generator's model of the live graph predicts every id.
type serveOp struct {
	kind   opKind
	due    time.Duration // offset from the start of the schedule
	graph  int           // static graph index (readCount, readStats)
	seed   int64         // sampleOp
	insert [][]int32     // insertOp
	del    int32         // deleteOp
	mut    int           // position among mutations, -1 for other ops
}

// liveModel is the generator's copy of the live graph's edge set.
type liveModel struct {
	edges map[int32][]int32
	keys  map[string]bool
	ids   []int32 // live ids, in no particular order
	pos   map[int32]int
	next  int32
}

func newLiveModel() *liveModel {
	return &liveModel{edges: map[int32][]int32{}, keys: map[string]bool{}, pos: map[int32]int{}}
}

func edgeKey(e []int32) string { return fmt.Sprint(e) }

func (m *liveModel) insert(e []int32) {
	id := m.next
	m.next++
	m.edges[id] = e
	m.keys[edgeKey(e)] = true
	m.pos[id] = len(m.ids)
	m.ids = append(m.ids, id)
}

func (m *liveModel) remove(id int32) {
	i := m.pos[id]
	last := m.ids[len(m.ids)-1]
	m.ids[i] = last
	m.pos[last] = i
	m.ids = m.ids[:len(m.ids)-1]
	delete(m.pos, id)
	delete(m.keys, edgeKey(m.edges[id]))
	delete(m.edges, id)
}

// graph materializes the live edge set in ascending id order.
func (m *liveModel) graph() (*hypergraph.Hypergraph, []int32, error) {
	ids := append([]int32(nil), m.ids...)
	slices.Sort(ids)
	b := hypergraph.NewBuilder(0)
	for _, id := range ids {
		b.AddEdge(m.edges[id])
	}
	g, err := b.Build()
	return g, ids, err
}

// serve is the open-loop serving workload: a fixed-rate schedule of reads,
// live-graph mutations and cold samples against a durable daemon, sent by
// up to GOMAXPROCS goroutines.
type serve struct {
	quick     bool
	maxRelErr float64 // highest mean relative error of the sample ops that passes
	warmup    time.Duration
	graphs    []*graphInput
	seedEdges [][]int32
	ops       []serveOp
	model     *liveModel // the live graph after every op in ops
	mutations int

	// mutDone[m] closes when mutation m has been answered; mutation m+1
	// waits for it, so mutations apply in stream order.
	mutDone []chan struct{}

	// Diagnostics written by the sender goroutines.
	mu          sync.Mutex
	relErr      []float64
	uncachedRds int // reads of a warmed count that missed the cache

	localLive *live.Graph
	localKeys []string
	localProj *projection.Projected
}

func newServe() *serve { return &serve{} }

func (w *serve) prepare(cfg config) error {
	w.quick = cfg.quick
	scale, liveSeed, rate := 1.0, liveSeedEdges, serveRate
	w.warmup, w.maxRelErr = 2*time.Second, maxServeRelErr
	if cfg.quick {
		scale, liveSeed, rate = 0.1, 200, 200
		w.warmup, w.maxRelErr = 200*time.Millisecond, maxQuickRelErr
	}
	w.graphs = w.graphs[:0]
	for _, name := range serveDatasets {
		in, err := tableDataset(name, scale, cfg.seed)
		if err != nil {
			return err
		}
		w.graphs = append(w.graphs, in)
	}
	if err := computeReferences(w.graphs); err != nil {
		return err
	}

	// The live graph starts from coauth-DBLP's first liveSeed hyperedges;
	// its remaining ones are the pool inserts draw from.
	src, err := tableDataset("coauth-DBLP", scale, cfg.seed)
	if err != nil {
		return err
	}
	var all [][]int32
	for e := 0; e < src.g.NumEdges(); e++ {
		all = append(all, append([]int32(nil), src.g.Edge(e)...))
	}
	liveSeed = min(liveSeed, len(all)/2)
	w.seedEdges = all[:liveSeed]

	n, horizon := 0, time.Duration(0)
	if cfg.trace {
		n = serveTraceOps
		if cfg.quick {
			n = 100
		}
	} else {
		horizon = w.warmup + cfg.window
	}
	w.ops, w.model = genStream(cfg.seed, rate, n, horizon, w.seedEdges, all[liveSeed:], src.g.NumNodes(), len(w.graphs))
	w.mutations = 0
	for _, op := range w.ops {
		if op.mut >= 0 {
			w.mutations++
		}
	}
	return nil
}

// genStream generates the op stream: Poisson arrivals at rate, either n
// ops or every op due before horizon. The same seed always yields the same
// stream, and a shorter stream is a prefix of a longer one.
func genStream(seed int64, rate float64, n int, horizon time.Duration, seedEdges, pool [][]int32, numNodes, graphs int) ([]serveOp, *liveModel) {
	arrivals := rand.New(rand.NewSource(mix64(seed, 10)))
	rng := rand.New(rand.NewSource(mix64(seed, 11)))
	m := newLiveModel()
	for _, e := range seedEdges {
		m.insert(e)
	}
	var ops []serveOp
	var due time.Duration
	mut := 0
	for i := 0; ; i++ {
		due += time.Duration(arrivals.ExpFloat64() / rate * float64(time.Second))
		if (n > 0 && i >= n) || (n == 0 && due >= horizon) {
			break
		}
		op := serveOp{kind: pickKind(rng), due: due, mut: -1}
		if op.kind == deleteOp && len(m.ids) == 0 {
			op.kind = insertOp
		}
		switch op.kind {
		case readCount, readStats:
			op.graph = rng.Intn(graphs)
		case sampleOp:
			op.graph = sampleGraph
			op.seed = mix64(seed, 12, int64(i))
		case insertOp:
			for k := 1 + rng.Intn(maxInsertBatch); k > 0; k-- {
				var e []int32
				for e == nil || m.keys[edgeKey(e)] {
					if len(pool) > 0 {
						e, pool = pool[0], pool[1:]
					} else {
						e = randomEdge(rng, numNodes)
					}
				}
				m.insert(e)
				op.insert = append(op.insert, e)
			}
		case deleteOp:
			op.del = m.ids[rng.Intn(len(m.ids))]
			m.remove(op.del)
		}
		if op.kind == insertOp || op.kind == deleteOp {
			op.mut = mut
			mut++
		}
		ops = append(ops, op)
	}
	return ops, m
}

// randomEdge draws a canonical (sorted, distinct) hyperedge of 2-5 nodes.
func randomEdge(rng *rand.Rand, numNodes int) []int32 {
	size := 2 + rng.Intn(4)
	set := map[int32]bool{}
	for len(set) < size {
		set[int32(rng.Intn(numNodes))] = true
	}
	e := make([]int32, 0, size)
	for v := range set {
		e = append(e, v)
	}
	slices.Sort(e)
	return e
}

func (w *serve) durable() bool { return true }
func (w *serve) setups() int   { return 5 }
func (w *serve) senders() int  { return runtime.GOMAXPROCS(0) }
func (w *serve) traceOps() int { return len(w.ops) }

func (w *serve) class(i int) string { return w.ops[i].kind.class() }

// setup uploads the static graphs (persisted by the store), warms their
// exact counts and seeds the live graph.
func (w *serve) setup(ctx context.Context, c *client.Client, chk *checker) error {
	for _, in := range w.graphs {
		if _, err := c.UploadGraph(ctx, in.name, in.g); err != nil {
			return fmt.Errorf("upload %s: %w", in.name, err)
		}
		cr, err := c.Count(ctx, in.name, api.CountRequest{Algorithm: api.AlgoExact})
		if err != nil {
			return fmt.Errorf("warm exact count of %s: %w", in.name, err)
		}
		chk.check("exact count of "+in.name, checkExact(cr.Counts, &in.ref))
	}
	for lo := 0; lo < len(w.seedEdges); lo += seedBatch {
		batch := w.seedEdges[lo:min(lo+seedBatch, len(w.seedEdges))]
		res, err := c.InsertEdges(ctx, liveName, batch)
		if err != nil {
			return fmt.Errorf("seed live graph: %w", err)
		}
		if res.Applied != len(batch) {
			return fmt.Errorf("seed live graph: %d of %d hyperedges applied", res.Applied, len(batch))
		}
	}
	w.mutDone = make([]chan struct{}, w.mutations)
	for i := range w.mutDone {
		w.mutDone[i] = make(chan struct{})
	}
	return nil
}

// sdk sends op i through the client and checks its output. A mutation
// first waits until the one before it in the stream has been answered.
func (w *serve) sdk(ctx context.Context, c *client.Client, i int, chk *checker) error {
	op := &w.ops[i]
	if op.mut >= 0 {
		if op.mut > 0 {
			select {
			case <-w.mutDone[op.mut-1]:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		defer close(w.mutDone[op.mut])
	}
	switch op.kind {
	case readCount:
		in := w.graphs[op.graph]
		cr, err := c.Count(ctx, in.name, api.CountRequest{Algorithm: api.AlgoExact})
		if err != nil {
			return err
		}
		chk.check("cached exact count of "+in.name, checkExact(cr.Counts, &in.ref))
		if !cr.Cached {
			w.mu.Lock()
			w.uncachedRds++
			w.mu.Unlock()
		}
	case readLive:
		lc, err := c.LiveCounts(ctx, liveName)
		if err != nil {
			return err
		}
		chk.check("live counts", checkEstimate(lc.Counts))
	case readStats:
		in := w.graphs[op.graph]
		st, err := c.Stats(ctx, in.name)
		if err != nil {
			return err
		}
		if st.NumEdges != in.g.NumEdges() {
			chk.fail("stats of %s: %d hyperedges, want %d", in.name, st.NumEdges, in.g.NumEdges())
		}
	case insertOp:
		res, err := c.InsertEdges(ctx, liveName, op.insert)
		if err != nil {
			return err
		}
		if res.Applied != len(op.insert) {
			chk.fail("insert: %d of %d hyperedges applied", res.Applied, len(op.insert))
		}
	case deleteOp:
		res, err := c.DeleteEdge(ctx, liveName, op.del)
		if err != nil {
			return err
		}
		if res.Applied != 1 {
			chk.fail("delete %d: not applied", op.del)
		}
	case sampleOp:
		in := w.graphs[op.graph]
		cr, err := c.Count(ctx, in.name, api.CountRequest{Algorithm: api.AlgoWedge, Samples: w.sampleBudget(), Seed: op.seed})
		if err != nil {
			return err
		}
		chk.check("estimate of "+in.name, checkEstimate(cr.Counts))
		est := toCounts(cr.Counts)
		w.mu.Lock()
		w.relErr = append(w.relErr, est.RelativeError(&in.ref))
		w.mu.Unlock()
	}
	return nil
}

func (w *serve) sampleBudget() int {
	if w.quick {
		return 200
	}
	return sampleBudget
}

// measure plays the schedule open-loop: op i is due at its offset from the
// start and is timed from then, whether or not a sender was free. Ops due
// in the warm-up run but are not measured.
func (w *serve) measure(ctx context.Context, c *client.Client, _ time.Duration, chk *checker) (*measurement, error) {
	due := make([]time.Duration, len(w.ops))
	for i, op := range w.ops {
		due[i] = op.due
	}
	timings := openLoop(ctx, due, w.senders(), func(i int) error { return w.sdk(ctx, c, i, chk) })
	m := &measurement{}
	for i, t := range timings {
		if w.ops[i].due < w.warmup {
			continue
		}
		m.ops = append(m.ops, opSample{class: w.class(i), lat: t.lat, err: t.err})
		m.late = append(m.late, ms(t.late))
	}
	return m, nil
}

// finish checks the accuracy of the sample ops' estimates and the live
// graph after the stream: its ids are the model's, and its maintained
// counts equal a serial MoCHy-E count of its edges.
func (w *serve) finish(ctx context.Context, c *client.Client, chk *checker) error {
	chk.check("sample estimates", checkAccuracy(w.relErr, w.maxRelErr))
	g, ids, err := w.model.graph()
	if err != nil {
		return fmt.Errorf("build live reference: %w", err)
	}
	want := counting.CountExact(g, projection.Build(g), 1)
	el, err := c.LiveEdges(ctx, liveName)
	if err != nil {
		return fmt.Errorf("list live edges: %w", err)
	}
	if !slices.Equal(el.IDs, ids) {
		chk.fail("live graph holds %d hyperedges, the stream leaves %d", len(el.IDs), len(ids))
	}
	lc, err := c.LiveCounts(ctx, liveName)
	if err != nil {
		return fmt.Errorf("read live counts: %w", err)
	}
	chk.check("live counts after the stream", checkExact(lc.Counts, &want))
	if w.localLive != nil {
		got, _, err := w.localLive.Counts()
		if err != nil {
			return fmt.Errorf("read replayed live counts: %w", err)
		}
		chk.check("replayed live counts after the stream", checkExact(got[:], &want))
	}
	return nil
}

func (w *serve) notes() []string {
	return []string{
		fmt.Sprintf("rel_err=%.6f (mean Counts.RelativeError of %d sample-op estimates; at most %.2f passes)", mean(w.relErr), len(w.relErr), w.maxRelErr),
		fmt.Sprintf("uncached_reads=%d (cached-count reads that missed the cache)", w.uncachedRds),
	}
}

// openLocal builds the replay's durable state the way the daemon's set-up
// did: graphs registered and persisted, exact counts cached, the live
// graph seeded through a journaled registry.
func (w *serve) openLocal(ctx context.Context, l *layers) error {
	end := l.tr.root("setup")
	defer end()
	w.localKeys = w.localKeys[:0]
	for _, in := range w.graphs {
		e := l.load(in.name, in.g)
		if err := l.putGraph(in.name, e.Gen, in.g); err != nil {
			return fmt.Errorf("persist %s: %w", in.name, err)
		}
		key := countKey(e, api.AlgoExact, 0, 0)
		l.cachePut(key, in.ref, time.Second)
		w.localKeys = append(w.localKeys, key)
	}
	w.localProj = projection.Build(w.graphs[sampleGraph].g)
	g, _, err := l.live.GetOrCreate(liveName)
	if err != nil {
		return err
	}
	w.localLive = g
	ops := make([]live.Op, len(w.seedEdges))
	for i, e := range w.seedEdges {
		ops[i] = live.Op{Insert: e}
	}
	_, err = l.apply(g, ops)
	return err
}

// direct replays op i on the in-process layers.
func (w *serve) direct(ctx context.Context, l *layers, i int, chk *checker) error {
	op := &w.ops[i]
	switch op.kind {
	case readCount:
		in := w.graphs[op.graph]
		v, ok := l.cacheGet(w.localKeys[op.graph])
		if !ok {
			return fmt.Errorf("exact counts of %s missing from the replay cache", in.name)
		}
		c := v.(counting.Counts)
		chk.check("replayed cached count of "+in.name, checkExact(c[:], &in.ref))
	case readLive:
		c, err := l.liveCounts(w.localLive)
		if err != nil {
			return err
		}
		chk.check("replayed live counts", checkEstimate(c[:]))
	case readStats:
		in := w.graphs[op.graph]
		e, ok := l.lookup(in.name)
		if !ok || e.Stats.NumEdges != in.g.NumEdges() {
			chk.fail("replayed stats of %s", in.name)
		}
	case insertOp, deleteOp:
		ops := []live.Op{{Delete: op.del}}
		if op.kind == insertOp {
			ops = make([]live.Op, len(op.insert))
			for k, e := range op.insert {
				ops[k] = live.Op{Insert: e}
			}
		}
		res, err := l.apply(w.localLive, ops)
		if err != nil {
			return err
		}
		if res.Applied != len(ops) {
			chk.fail("replayed mutation: %d of %d ops applied", res.Applied, len(ops))
		}
	case sampleOp:
		in := w.graphs[op.graph]
		e, ok := l.lookup(in.name)
		if !ok {
			return fmt.Errorf("graph %s not registered in the replay", in.name)
		}
		key := countKey(e, api.AlgoWedge, w.sampleBudget(), op.seed)
		if _, hit := l.cacheGet(key); hit {
			chk.fail("replayed sample of %s hit the cache", in.name)
		}
		if err := l.acquire(ctx); err != nil {
			return err
		}
		t0 := time.Now()
		c, err := l.countWedges(ctx, in.g, w.localProj, w.sampleBudget(), op.seed)
		cost := time.Since(t0)
		l.release()
		if err != nil {
			return err
		}
		l.cachePut(key, c, cost)
		chk.check("replayed estimate of "+in.name, checkEstimate(c[:]))
		l.relErr = append(l.relErr, c.RelativeError(&in.ref))
	}
	return nil
}
