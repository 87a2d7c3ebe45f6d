package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"mochy/api"
	"mochy/internal/dynamic"
	"mochy/internal/server/live"
	"mochy/internal/stream"
)

// Defaults for POST /streams/{name} estimator creation.
const (
	defaultStreamCapacity = 1000
	defaultStreamSeed     = 1
)

func toStreamState(in *live.StreamInfo) *api.StreamState {
	if in == nil {
		return nil
	}
	return &api.StreamState{
		Capacity:       in.Capacity,
		EdgesSeen:      in.EdgesSeen,
		ReservoirSize:  in.ReservoirSize,
		Estimates:      in.Estimates[:],
		EstimatedTotal: in.Estimates.Total(),
	}
}

func toMutateResult(name string, res live.BatchResult) api.MutateResult {
	out := api.MutateResult{
		Graph:   name,
		Applied: res.Applied,
		Version: res.Version,
		Edges:   res.Edges,
		Results: make([]api.OpResult, len(res.Results)),
		Counts:  res.Counts[:],
		Total:   res.Counts.Total(),
	}
	for i, r := range res.Results {
		op := "delete"
		if r.Insert {
			op = "insert"
		}
		out.Results[i] = api.OpResult{Op: op, ID: r.ID}
		if r.Err != nil {
			out.Results[i].Error = r.Err.Error()
		}
	}
	return out
}

// batchStatus maps a batch outcome to an HTTP status: 200 when every op
// applied, otherwise the class of the eponymous first failure.
func batchStatus(res live.BatchResult) int {
	if res.Applied == len(res.Results) {
		return http.StatusOK
	}
	return opErrStatus(res.Results[res.Applied].Err)
}

func opErrStatus(err error) int {
	switch {
	case errors.Is(err, dynamic.ErrNoSuchEdge):
		return http.StatusNotFound
	case errors.Is(err, dynamic.ErrDuplicateEdge):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// liveGraphOrError resolves an existing live graph or writes a 404.
func (s *Server) liveGraphOrError(w http.ResponseWriter, name string) (*live.Graph, bool) {
	g, ok := s.liveReg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "live graph %q not found", name)
		return nil, false
	}
	return g, true
}

// createLiveGraph resolves or creates the live graph name, writing the
// error response on failure. created reports whether this request made the
// graph; callers that then fail to apply any mutation should Rollback so a
// bad bootstrap request doesn't leave an empty graph behind.
func (s *Server) createLiveGraph(w http.ResponseWriter, name string) (g *live.Graph, created, ok bool) {
	g, created, err := s.liveReg.GetOrCreate(name)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "create live graph: %v", err)
		return nil, false, false
	}
	return g, created, true
}

// rollbackIfUnused undoes a this-request graph creation when the request
// ended up applying nothing, including the on-disk WAL the creation opened.
// The drop names the rolled-back graph's own journal, so it cannot touch a
// replacement graph that claimed the name concurrently.
func (s *Server) rollbackIfUnused(name string, g *live.Graph, created bool, applied int) {
	if created && applied == 0 {
		if s.liveReg.Rollback(name, g) && s.store != nil {
			_ = s.store.DropLiveIf(name, g.Journal())
		}
	}
}

// writeBatch renders a batch result, mapping a concurrently-deleted graph
// to 404 and a journal failure — the batch applied in memory but could not
// be made durable — to 500 so the client knows not to trust the ack.
func writeBatch(w http.ResponseWriter, name string, res live.BatchResult, err error) {
	switch {
	case err == nil:
		writeJSON(w, batchStatus(res), toMutateResult(name, res))
	case errors.Is(err, live.ErrNotDurable):
		writeError(w, http.StatusInternalServerError, "live graph %q: %v", name, err)
	default:
		writeError(w, http.StatusNotFound, "live graph %q: %v", name, err)
	}
}

// handleInsertEdges serves POST /v1/graphs/{name}/edges: a batch insert
// into the live graph, creating it on first use.
func (s *Server) handleInsertEdges(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	var req api.EdgesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "edges is required and must be non-empty")
		return
	}
	g, created, ok := s.createLiveGraph(w, name)
	if !ok {
		return
	}
	ops := make([]live.Op, len(req.Edges))
	for i, e := range req.Edges {
		ops[i] = live.Op{Insert: e}
	}
	res, err := g.Apply(ops)
	s.rollbackIfUnused(name, g, created, res.Applied)
	s.maybeAutoCheckpoint(g)
	writeBatch(w, name, res, err)
}

// handleListEdges serves GET /v1/graphs/{name}/edges: the live hyperedge
// ids.
func (s *Server) handleListEdges(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	g, ok := s.liveGraphOrError(w, name)
	if !ok {
		return
	}
	ids, version, err := g.EdgeIDs()
	if err != nil {
		writeError(w, http.StatusNotFound, "live graph %q: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, api.EdgeList{
		Graph: name, Edges: len(ids), IDs: ids, Version: version,
	})
}

// handleDeleteEdge serves DELETE /v1/graphs/{name}/edges/{id}: removal of
// one live hyperedge by id.
func (s *Server) handleDeleteEdge(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	id, err := strconv.ParseInt(p["id"], 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid edge id %q", p["id"])
		return
	}
	g, ok := s.liveGraphOrError(w, name)
	if !ok {
		return
	}
	res, aerr := g.Apply([]live.Op{{Delete: int32(id)}})
	s.maybeAutoCheckpoint(g)
	writeBatch(w, name, res, aerr)
}

// handlePatchGraph serves PATCH /v1/graphs/{name}: one mixed delta of
// deletes (applied first) and inserts, against the live graph. A patch
// containing inserts creates the graph on first use (so a pure-insert patch
// can bootstrap one); a pure-delete patch requires it to exist.
func (s *Server) handlePatchGraph(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	var req api.PatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUploadBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if len(req.Deletes) == 0 && len(req.Inserts) == 0 {
		writeError(w, http.StatusBadRequest, "patch must contain deletes or inserts")
		return
	}
	var (
		g       *live.Graph
		created bool
		ok      bool
	)
	if len(req.Inserts) == 0 {
		g, ok = s.liveGraphOrError(w, name)
	} else {
		g, created, ok = s.createLiveGraph(w, name)
	}
	if !ok {
		return
	}
	ops := make([]live.Op, 0, len(req.Deletes)+len(req.Inserts))
	for _, id := range req.Deletes {
		ops = append(ops, live.Op{Delete: id})
	}
	for _, e := range req.Inserts {
		ops = append(ops, live.Op{Insert: e})
	}
	res, err := g.Apply(ops)
	s.rollbackIfUnused(name, g, created, res.Applied)
	s.maybeAutoCheckpoint(g)
	writeBatch(w, name, res, err)
}

// handleLiveCounts serves GET /v1/graphs/{name}/counts: the always-current
// exact counts of the live graph, maintained incrementally in O(delta) per
// mutation, read in O(1) — no counting job, pool slot, or cache involved.
func (s *Server) handleLiveCounts(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	g, ok := s.liveGraphOrError(w, name)
	if !ok {
		return
	}
	info, err := g.Info()
	if err != nil {
		writeError(w, http.StatusNotFound, "live graph %q: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, api.LiveCounts{
		Graph:        name,
		Version:      info.Version,
		Edges:        info.Edges,
		Wedges:       info.Wedges,
		Counts:       info.Counts[:],
		Total:        info.Counts.Total(),
		OpenFraction: info.Counts.OpenFraction(),
		Stream:       toStreamState(info.Stream),
	})
}

// handleSnapshot serves POST /v1/graphs/{name}/snapshot: it freezes the
// live graph's current edge set into the immutable registry (default under
// the same name), where the sampled-count and profile endpoints operate on
// it. The counter's exact counts are seeded into the result cache for the
// new generation — the frozen view's exact count is a cache hit without
// ever running MoCHy-E — and stale generations of the target name are
// purged.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	var req api.SnapshotRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	target := req.As
	if target == "" {
		target = name
	}
	if strings.ContainsRune(target, '/') {
		writeError(w, http.StatusBadRequest, "snapshot name must not contain '/'")
		return
	}
	g, ok := s.liveGraphOrError(w, name)
	if !ok {
		return
	}
	snap, counts, version, err := g.Snapshot()
	if err != nil {
		writeError(w, http.StatusNotFound, "snapshot live graph %q: %v", name, err)
		return
	}
	e, replaced := s.registry.Load(target, snap)
	s.purgeStaleGenerations(target, e.Gen)
	// Recomputing a seeded exact count means a full MoCHy-E run, so it gets
	// a high eviction cost even though it cost this request nothing.
	s.putIfCurrent(e, exactKey(e), counts, 0, snapshotSeedCost)
	if s.store != nil {
		// Persist the frozen view with its exact counts; replacing an older
		// generation's segment deletes that segment and its sidecar, so
		// snapshot-replace can never leak dead files. Failures are reported:
		// the snapshot exists in memory but did not reach disk.
		if err := s.store.PutGraph(target, e.Gen, snap); err != nil {
			writeError(w, http.StatusInternalServerError, "snapshot %q registered but not persisted: %v", target, err)
			return
		}
		if err := s.store.PutCounts(target, e.Gen, counts); err != nil {
			s.persistErrs.Inc()
			s.logger.WarnContext(r.Context(), "persist snapshot counts failed",
				"graph", target, "error", err)
		}
	}
	writeJSON(w, http.StatusCreated, api.SnapshotResult{
		Graph:    name,
		As:       target,
		Version:  version,
		Replaced: replaced,
		Stats:    toStats(e.Stats),
	})
}

// handleDeleteGraph serves DELETE /v1/graphs/{name}: it unregisters the
// immutable entry and the live graph (whichever exist) and purges every
// cached result of the name, so dead generation-keyed entries stop
// occupying LRU capacity the moment the graph goes away.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	static := s.registry.Delete(name)
	liveGraph, liveDeleted := s.liveReg.Delete(name)
	if !static && !liveDeleted {
		writeError(w, http.StatusNotFound, "graph %q not found", name)
		return
	}
	purged := s.purgeGraph(name)
	if s.store != nil {
		// Mirror the cache purge on disk: segment, counts sidecar, live
		// base and WAL generations all go, so storage cannot leak dead
		// generations the way the cache once did. The live half is keyed
		// to the removed graph's own journal, so a graph recreated under
		// the name while this runs keeps its durable state.
		var jrn live.Journal
		if liveGraph != nil {
			jrn = liveGraph.Journal()
		}
		if err := s.store.DeleteGraph(name, jrn); err != nil {
			writeError(w, http.StatusInternalServerError, "graph %q deleted but storage not reclaimed: %v", name, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, api.DeleteResult{
		Deleted: name, Static: static, Live: liveDeleted, CachePurged: purged,
	})
}

// handleStreamGet serves GET /v1/streams/{name}: the estimator state next
// to the current exact counts.
func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	g, ok := s.liveGraphOrError(w, name)
	if !ok {
		return
	}
	info, err := g.Info()
	if err != nil {
		writeError(w, http.StatusNotFound, "live graph %q: %v", name, err)
		return
	}
	if info.Stream == nil {
		writeError(w, http.StatusNotFound, "live graph %q has no stream estimator", name)
		return
	}
	writeJSON(w, http.StatusOK, api.IngestResult{
		Stream:    name,
		Version:   info.Version,
		Edges:     info.Edges,
		Counts:    info.Counts[:],
		Total:     info.Counts.Total(),
		Estimator: toStreamState(info.Stream),
	})
}

// handleStreamIngest serves POST /v1/streams/{name}: an NDJSON body — one
// hyperedge per line, as a JSON array of node ids — ingested into the live
// graph name (created on first use), feeding every record to both the
// dynamic exact counter and a reservoir stream.Estimator so the counts
// endpoint reports exact counts and unbiased estimates side by side. Query
// parameters capacity and seed configure the estimator when this stream
// first attaches it.
func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	capacity := defaultStreamCapacity
	seed := int64(defaultStreamSeed)
	q := r.URL.Query()
	if v := q.Get("capacity"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			writeError(w, http.StatusBadRequest, "capacity must be an integer >= 2, got %q", v)
			return
		}
		capacity = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid seed %q", v)
			return
		}
		seed = n
	}

	edges, err := parseNDJSONEdges(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	g, created, ok := s.createLiveGraph(w, name)
	if !ok {
		return
	}
	if _, err := g.EnsureStream(capacity, seed); err != nil {
		s.rollbackIfUnused(name, g, created, 0)
		switch {
		case errors.Is(err, stream.ErrBadCapacity):
			writeError(w, http.StatusBadRequest, "attach estimator: %v", err)
		case errors.Is(err, live.ErrNotDurable):
			writeError(w, http.StatusInternalServerError, "live graph %q: %v", name, err)
		default:
			writeError(w, http.StatusNotFound, "live graph %q: %v", name, err)
		}
		return
	}
	res, ingestErr := g.IngestBatch(edges)
	s.rollbackIfUnused(name, g, created, res.Inserted)
	s.maybeAutoCheckpoint(g)
	resp := api.IngestResult{
		Stream:     name,
		Ingested:   res.Ingested,
		Inserted:   res.Inserted,
		Duplicates: res.Duplicates,
		Version:    res.Version,
		Edges:      res.Edges,
		Counts:     res.Counts[:],
		Total:      res.Counts.Total(),
		Estimator:  toStreamState(res.Stream),
	}
	status := http.StatusOK
	if ingestErr != nil {
		// Records before the failure stay applied; report both the partial
		// state and what stopped the batch.
		switch {
		case errors.Is(ingestErr, live.ErrClosed):
			status = http.StatusNotFound
		case errors.Is(ingestErr, live.ErrNotDurable):
			status = http.StatusInternalServerError
		default:
			status = http.StatusBadRequest
		}
		resp.Error = ingestErr.Error()
	}
	writeJSON(w, status, resp)
}

// parseNDJSONEdges reads an NDJSON stream of hyperedges: one JSON array of
// node ids per line. Blank lines are skipped.
func parseNDJSONEdges(body io.Reader) ([][]int32, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var edges [][]int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var nodes []int32
		if err := json.Unmarshal([]byte(line), &nodes); err != nil {
			return nil, fmt.Errorf("line %d: want a JSON array of node ids: %v", lineNo, err)
		}
		edges = append(edges, nodes)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read body: %v", err)
	}
	if len(edges) == 0 {
		return nil, errors.New("empty stream body: want NDJSON, one hyperedge per line")
	}
	return edges, nil
}
