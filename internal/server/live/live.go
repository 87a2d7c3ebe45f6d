// Package live hosts mutable, mutation-ordered hypergraphs for mochyd.
//
// A static registry entry is immutable: changing one hyperedge means
// re-uploading the whole graph and recounting from scratch. A live.Graph
// instead keeps exact h-motif counts current under hyperedge insertions and
// deletions by delegating to dynamic.Counter, which counts the instances
// each update gains or loses with MoCHy-A's walker, the kernel's
// per-sample work over the updated hyperedge's neighborhood, rather than a
// full MoCHy-E pass. Reading the counts is O(1): they are maintained, not
// computed.
//
// Every graph serializes its operations through a single-writer apply loop:
// one goroutine owns the counter (and the optional reservoir estimator) and
// executes mutations, reads and snapshots in submission order. Mutations are
// therefore totally ordered, reads always observe a consistent
// (counts, version) pair, and no lock covers the O(neighborhood) update
// work — callers block only for their own operation and those ahead of it.
package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mochy/internal/dynamic"
	"mochy/internal/hypergraph"
	counting "mochy/internal/mochy"
	"mochy/internal/stream"
)

// Errors returned by live graphs.
var (
	ErrClosed   = errors.New("live: graph closed")
	ErrNoStream = errors.New("live: graph has no stream estimator attached")
	// ErrNotDurable wraps a journal failure: the mutation was applied in
	// memory but could not be made durable. The journal is poisoned once
	// this happens, so later mutations fail too and the in-memory state
	// can run at most one failed batch ahead of the log.
	ErrNotDurable = errors.New("live: mutation applied but not durable")
)

// Op is one mutation: a non-nil Insert adds that hyperedge, otherwise the
// live hyperedge with id Delete is removed.
type Op struct {
	Insert []int32
	Delete int32
}

// OpResult reports the outcome of one Op: the id assigned (insert) or
// removed (delete), and the error that stopped the batch, if any.
type OpResult struct {
	Insert bool
	ID     int32
	Err    error
}

// BatchResult reports an Apply: per-op outcomes, how many ops were applied
// (the batch stops at the first failing op; earlier ops stay applied), and
// the counts and version after the batch.
type BatchResult struct {
	Results []OpResult
	Applied int
	Version uint64
	Edges   int
	Counts  counting.Counts
}

// IngestResult reports an IngestBatch: how many stream records were
// processed, how many were new to the live edge set vs. duplicates, and the
// state after the batch.
type IngestResult struct {
	Ingested   int
	Inserted   int
	Duplicates int
	Version    uint64
	Edges      int
	Counts     counting.Counts
	Stream     *StreamInfo
}

// StreamInfo is the state of a graph's reservoir estimator.
type StreamInfo struct {
	Capacity      int
	EdgesSeen     int64
	ReservoirSize int
	Estimates     counting.Counts
}

// Info is a consistent snapshot of a live graph's scalar state.
type Info struct {
	Name    string
	Version uint64
	Edges   int
	Wedges  int64
	Counts  counting.Counts
	Stream  *StreamInfo
}

// state is the apply loop's exclusively-owned data.
type state struct {
	counter   *dynamic.Counter
	est       *stream.Estimator
	nodeLimit int
}

// Graph is one mutable hypergraph with always-current exact h-motif counts.
// All methods are safe for concurrent use; they funnel into the apply loop.
type Graph struct {
	name      string
	jrn       Journal // nil for ephemeral graphs
	reqs      chan func(*state)
	closed    chan struct{}
	closeOnce sync.Once
	// version counts applied mutations. It is written only by the apply
	// loop; the atomic lets Version be read without a loop round-trip.
	version atomic.Uint64
}

// newGraph starts a graph's apply loop. nodeLimit caps the node universe of
// inserted hyperedges (<= 0 means unlimited); a non-nil journal makes every
// applied mutation durable before its batch is acknowledged.
func newGraph(name string, nodeLimit int, jrn Journal) *Graph {
	g, st := buildGraph(name, nodeLimit, jrn)
	go g.loop(st)
	return g
}

// buildGraph constructs a graph and its apply-loop state without starting
// the loop, so restore paths can populate the state first.
func buildGraph(name string, nodeLimit int, jrn Journal) (*Graph, *state) {
	g := &Graph{
		name:   name,
		jrn:    jrn,
		reqs:   make(chan func(*state)),
		closed: make(chan struct{}),
	}
	st := &state{
		counter:   dynamic.New().LimitNodes(nodeLimit),
		nodeLimit: nodeLimit,
	}
	return g, st
}

// loop is the single writer: it executes submitted operations in order until
// the graph is closed, then drains any operation that already paired with a
// receive so no caller is left waiting.
func (g *Graph) loop(st *state) {
	for {
		select {
		case fn := <-g.reqs:
			fn(st)
		case <-g.closed:
			for {
				select {
				case fn := <-g.reqs:
					fn(st)
				default:
					return
				}
			}
		}
	}
}

// do runs fn on the apply loop and waits for it to finish. The request
// channel is unbuffered, so a successful send means the loop has accepted
// the operation and will complete it even if Close races with it.
func (g *Graph) do(fn func(*state)) error {
	done := make(chan struct{})
	select {
	case g.reqs <- func(st *state) { defer close(done); fn(st) }:
		<-done
		return nil
	case <-g.closed:
		return ErrClosed
	}
}

// Name returns the graph's registry name.
func (g *Graph) Name() string { return g.name }

// Journal returns the graph's write-ahead log, or nil for ephemeral
// graphs. The store uses it as an identity token: cleanup of a removed
// graph's durable state must name the journal it means, so it can never
// destroy the state of a new graph that took the name concurrently.
func (g *Graph) Journal() Journal { return g.jrn }

// Version returns the number of mutations applied so far.
func (g *Graph) Version() uint64 { return g.version.Load() }

// Close stops the apply loop. Operations already accepted complete; later
// calls fail with ErrClosed.
func (g *Graph) Close() { g.closeOnce.Do(func() { close(g.closed) }) }

// Apply executes ops in order, stopping at the first failing op (earlier
// ops stay applied — batches are ordered, not transactional). Each applied
// mutation bumps the version by one. With a journal attached, the applied
// ops are logged in apply order and the batch is made durable (one shared
// fsync across concurrent batches) before Apply returns.
func (g *Graph) Apply(ops []Op) (BatchResult, error) {
	var (
		res    BatchResult
		seq    uint64
		logErr error
	)
	err := g.do(func(st *state) {
		res.Results = make([]OpResult, 0, len(ops))
		var recs []Rec
		if g.jrn != nil {
			recs = make([]Rec, 0, len(ops))
		}
		for _, op := range ops {
			var r OpResult
			if op.Insert != nil {
				r.Insert = true
				r.ID, r.Err = st.counter.Insert(op.Insert)
			} else {
				r.ID = op.Delete
				r.Err = st.counter.Delete(op.Delete)
			}
			res.Results = append(res.Results, r)
			if r.Err != nil {
				break
			}
			if g.jrn != nil {
				if r.Insert {
					recs = append(recs, Rec{Kind: RecInsert, Nodes: st.counter.Edge(r.ID)})
				} else {
					recs = append(recs, Rec{Kind: RecDelete, ID: r.ID})
				}
			}
			res.Applied++
			g.version.Add(1)
		}
		seq, logErr = g.log(recs)
		res.Version = g.version.Load()
		res.Edges = st.counter.NumEdges()
		res.Counts = st.counter.Counts()
	})
	if err != nil {
		return res, err
	}
	if logErr != nil {
		return res, fmt.Errorf("%w: %v", ErrNotDurable, logErr)
	}
	return res, g.commit(seq)
}

// Counts returns the always-current exact h-motif counts and the version
// they correspond to.
func (g *Graph) Counts() (counting.Counts, uint64, error) {
	var (
		c counting.Counts
		v uint64
	)
	err := g.do(func(st *state) {
		c = st.counter.Counts()
		v = g.version.Load()
	})
	return c, v, err
}

// EdgeIDs returns the ids of all live hyperedges in ascending order,
// together with the version the listing corresponds to.
func (g *Graph) EdgeIDs() ([]int32, uint64, error) {
	var (
		ids []int32
		v   uint64
	)
	err := g.do(func(st *state) {
		ids = st.counter.IDs()
		v = g.version.Load()
	})
	return ids, v, err
}

// Info returns a consistent snapshot of the graph's scalar state.
func (g *Graph) Info() (Info, error) {
	var in Info
	err := g.do(func(st *state) {
		in = Info{
			Name:    g.name,
			Version: g.version.Load(),
			Edges:   st.counter.NumEdges(),
			Wedges:  st.counter.NumWedges(),
			Counts:  st.counter.Counts(),
			Stream:  streamInfo(st),
		}
	})
	return in, err
}

// Snapshot materializes the live edge set (in ascending id order) as an
// immutable hypergraph, returning it with the counts and version it
// reflects. The apply loop is busy for the O(graph) build, so mutations
// submitted during a snapshot order after it.
func (g *Graph) Snapshot() (*hypergraph.Hypergraph, counting.Counts, uint64, error) {
	var (
		snap *hypergraph.Hypergraph
		c    counting.Counts
		v    uint64
		berr error
	)
	err := g.do(func(st *state) {
		b := hypergraph.NewBuilder(0).LimitNodes(st.nodeLimit)
		for _, id := range st.counter.IDs() {
			b.AddEdge(st.counter.Edge(id))
		}
		snap, berr = b.Build()
		c = st.counter.Counts()
		v = g.version.Load()
	})
	if err != nil {
		return nil, counting.Counts{}, 0, err
	}
	return snap, c, v, berr
}

// EnsureStream attaches a reservoir estimator with the given capacity and
// seed if the graph has none, reporting whether it was created now. The
// parameters of an already-attached estimator are left unchanged.
func (g *Graph) EnsureStream(capacity int, seed int64) (created bool, err error) {
	var (
		seq    uint64
		logErr error
	)
	doErr := g.do(func(st *state) {
		if st.est != nil {
			return
		}
		est, e := stream.NewEstimator(capacity, seed)
		if e != nil {
			err = e
			return
		}
		est.LimitNodes(st.nodeLimit)
		st.est = est
		created = true
		seq, logErr = g.log([]Rec{{Kind: RecStream, Capacity: capacity, Seed: seed}})
	})
	if doErr != nil {
		return false, doErr
	}
	if err != nil {
		return false, err
	}
	if logErr != nil {
		return created, fmt.Errorf("%w: %v", ErrNotDurable, logErr)
	}
	return created, g.commit(seq)
}

// StreamInfo returns the state of the attached estimator, or ErrNoStream.
func (g *Graph) StreamInfo() (StreamInfo, error) {
	var (
		in   *StreamInfo
		serr error
	)
	err := g.do(func(st *state) {
		if in = streamInfo(st); in == nil {
			serr = ErrNoStream
		}
	})
	if err != nil {
		return StreamInfo{}, err
	}
	if serr != nil {
		return StreamInfo{}, serr
	}
	return *in, nil
}

// IngestBatch feeds stream records to the live counter and, when attached,
// the reservoir estimator, in order. A record whose node set is already
// live only feeds the estimator's duplicate filter; a record that was live
// once but has since been deleted re-enters the live set while the
// estimator, which models the append-only stream, ignores it. The batch
// stops at the first invalid record (earlier records stay applied).
func (g *Graph) IngestBatch(edges [][]int32) (IngestResult, error) {
	var (
		res    IngestResult
		ferr   error
		seq    uint64
		logErr error
	)
	err := g.do(func(st *state) {
		var recs []Rec
		if g.jrn != nil {
			recs = make([]Rec, 0, len(edges))
		}
		for i, nodes := range edges {
			_, ierr := st.counter.Insert(nodes)
			mutated := false
			switch {
			case ierr == nil:
				res.Inserted++
				g.version.Add(1)
				mutated = true
			case errors.Is(ierr, dynamic.ErrDuplicateEdge):
				res.Duplicates++
				mutated = true
			default:
				ferr = fmt.Errorf("record %d: %w", i, ierr)
			}
			if mutated && g.jrn != nil {
				// Logged as soon as the counter (or the estimator's
				// duplicate path) has consumed the record, even if the
				// estimator rejects it below: the counter mutation must
				// replay either way.
				cp := append([]int32(nil), nodes...)
				recs = append(recs, Rec{Kind: RecIngest, Nodes: cp})
			}
			if ferr == nil && st.est != nil {
				if e := st.est.Ingest(nodes); e != nil {
					ferr = fmt.Errorf("record %d: %w", i, e)
				}
			}
			if ferr != nil {
				break
			}
			res.Ingested++
		}
		seq, logErr = g.log(recs)
		res.Version = g.version.Load()
		res.Edges = st.counter.NumEdges()
		res.Counts = st.counter.Counts()
		res.Stream = streamInfo(st)
	})
	if err != nil {
		return IngestResult{}, err
	}
	if logErr != nil {
		return res, fmt.Errorf("%w: %v", ErrNotDurable, logErr)
	}
	if cerr := g.commit(seq); cerr != nil {
		return res, cerr
	}
	return res, ferr
}

// streamInfo captures the estimator state; callers run on the apply loop.
func streamInfo(st *state) *StreamInfo {
	if st.est == nil {
		return nil
	}
	return &StreamInfo{
		Capacity:      st.est.Capacity(),
		EdgesSeen:     st.est.EdgesSeen(),
		ReservoirSize: st.est.ReservoirSize(),
		Estimates:     st.est.Estimates(),
	}
}
