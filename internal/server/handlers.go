package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"mochy/api"
	"mochy/internal/hypergraph"
)

// maxUploadBytes bounds graph upload bodies (64 MiB of text covers every
// dataset in the paper with room to spare).
const maxUploadBytes = 64 << 20

// maxQueryBytes bounds count/profile request bodies, which carry only a
// handful of scalar parameters.
const maxQueryBytes = 1 << 20

// maxGraphNodes caps the node universe of an uploaded graph. The incidence
// index allocates proportionally to the largest node ID, so without a cap a
// tiny request naming node 2e9 would force a multi-gigabyte allocation.
const maxGraphNodes = 1 << 24

func toStats(s hypergraph.Stats) api.Stats {
	return api.Stats{
		NumNodes:       s.NumNodes,
		NumEdges:       s.NumEdges,
		TotalIncidence: s.TotalIncidence,
		MaxEdgeSize:    s.MaxEdgeSize,
		MeanEdgeSize:   s.MeanEdgeSize,
		MaxDegree:      s.MaxDegree,
		MeanDegree:     s.MeanDegree,
		SizeHistogram:  s.SizeHistogram,
		DegreeHist:     s.DegreeHistogram,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

// writeBackpressure answers 429 with a Retry-After hint when the job pool's
// queue has outlived the configured budget.
func (s *Server) writeBackpressure(w http.ResponseWriter) {
	retry := int64(s.cfg.QueueBudget / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
	writeError(w, http.StatusTooManyRequests,
		"job queue saturated for more than %s; retry later", s.cfg.QueueBudget)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ params) {
	hits, misses := s.cache.Counters()
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Graphs:        s.registry.Len(),
		LiveGraphs:    s.liveReg.Len(),
		CacheEntries:  s.cache.Len(),
		CacheHits:     hits,
		CacheMisses:   misses,
		ActiveJobs:    s.pool.Active(),
		JobCapacity:   s.pool.Capacity(),
		QueueDepth:    s.pool.Waiting(),
	})
}

// handleList serves the graph listing: registered immutable names plus live
// graph names.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request, _ params) {
	writeJSON(w, http.StatusOK, api.GraphList{
		Graphs: s.registry.Names(),
		Live:   s.liveReg.Names(),
	})
}

// buildGraphDoc materializes a hypergraph from the JSON transport form:
// exactly one of Text (the whitespace hyperedge-list format) or Edges.
func buildGraphDoc(doc *api.GraphDoc) (*hypergraph.Hypergraph, error) {
	switch {
	case doc.Text != "" && doc.Edges != nil:
		return nil, fmt.Errorf("provide either text or edges, not both")
	case doc.Text != "":
		return hypergraph.ParseLimit(strings.NewReader(doc.Text), maxGraphNodes)
	case doc.Edges != nil:
		if doc.NumNodes > maxGraphNodes {
			return nil, fmt.Errorf("num_nodes %d exceeds the limit of %d", doc.NumNodes, maxGraphNodes)
		}
		b := hypergraph.NewBuilder(doc.NumNodes).LimitNodes(maxGraphNodes)
		for _, e := range doc.Edges {
			b.AddEdge(e)
		}
		return b.Build()
	default:
		return nil, fmt.Errorf("provide text or edges")
	}
}

// registerGraph loads g into the immutable registry under name, purges any
// replaced generation's cached results, and — when persistence is
// configured — writes the graph's segment before reporting success, so an
// acknowledged upload survives a crash. A persistence failure leaves the
// graph registered in memory (requests already racing it stay coherent)
// but reports the error so the client knows durability was not achieved.
func (s *Server) registerGraph(name string, g *hypergraph.Hypergraph) (api.LoadResult, error) {
	e, replaced := s.registry.Load(name, g)
	if replaced {
		// The replaced generation's cached results can never be read again;
		// drop them now instead of letting them squat in the LRU.
		s.purgeStaleGenerations(name, e.Gen)
	}
	if s.store != nil {
		if err := s.store.PutGraph(name, e.Gen, g); err != nil {
			return api.LoadResult{}, fmt.Errorf("graph %q registered but not persisted: %v", name, err)
		}
	}
	return api.LoadResult{Name: name, Replaced: replaced, Stats: toStats(e.Stats)}, nil
}

// LoadGraph registers g under name exactly like an upload would, including
// persistence. mochyd uses it for -load preloads.
func (s *Server) LoadGraph(name string, g *hypergraph.Hypergraph) (api.LoadResult, error) {
	return s.registerGraph(name, g)
}

// writeRegistered renders a registerGraph outcome.
func (s *Server) writeRegistered(w http.ResponseWriter, res api.LoadResult, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

// handleStats serves graph statistics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	writeJSON(w, http.StatusOK, toStats(e.Stats))
}
