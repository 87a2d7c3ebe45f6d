package server

import (
	"encoding/json"
	"fmt"
	"mime"
	"net/http"
	"strings"

	"mochy/api"
	"mochy/internal/hypergraph"
	"mochy/internal/pipeline"
)

// contentType extracts the media type of a request body, defaulting to
// JSON (the bootstrap API's only transport) when absent or malformed.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return api.ContentTypeJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return api.ContentTypeJSON
	}
	return mt
}

// negotiateDownload picks the response transport for a graph download from
// the Accept header: the first supported media range wins, and absent or
// wildcard Accept selects JSON.
func negotiateDownload(r *http.Request) (string, error) {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return api.ContentTypeJSON, nil
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		switch mt {
		case api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON:
			return mt, nil
		case "*/*", "application/*", "text/*":
			return api.ContentTypeJSON, nil
		}
	}
	return "", fmt.Errorf("no supported media type in Accept %q (want %s, %s or %s)",
		accept, api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON)
}

// handleUploadGraph serves PUT /v1/graphs/{name}: the content-negotiated
// graph upload. Binary bodies reuse the hypergraph binary codec and skip
// text parsing entirely — the transport multi-GB graphs should ride.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request, p params) {
	name := p["name"]
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes+16)
	switch ct := contentType(r); ct {
	case api.ContentTypeBinary:
		g, err := api.ReadGraph(body, maxUploadBytes, maxGraphNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid binary graph: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	case api.ContentTypeText:
		g, err := hypergraph.ParseLimit(body, maxGraphNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid hypergraph text: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	case api.ContentTypeJSON:
		var doc api.GraphDoc
		if err := json.NewDecoder(body).Decode(&doc); err != nil {
			writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
			return
		}
		g, err := buildGraphDoc(&doc)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid hypergraph: %v", err)
			return
		}
		res, rerr := s.registerGraph(name, g)
		s.writeRegistered(w, res, rerr)
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want %s, %s or %s)",
			ct, api.ContentTypeBinary, api.ContentTypeText, api.ContentTypeJSON)
	}
}

// handleDownloadGraph serves GET /v1/graphs/{name}: the content-negotiated
// graph download (binary, text, or the JSON document form).
func (s *Server) handleDownloadGraph(w http.ResponseWriter, r *http.Request, p params) {
	e, ok := s.registry.Get(p["name"])
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", p["name"])
		return
	}
	mt, err := negotiateDownload(r)
	if err != nil {
		writeError(w, http.StatusNotAcceptable, "%v", err)
		return
	}
	switch mt {
	case api.ContentTypeBinary:
		w.Header().Set("Content-Type", api.ContentTypeBinary)
		if err := api.WriteGraph(w, e.Graph); err != nil {
			// Headers are out; all we can do is drop the connection.
			return
		}
	case api.ContentTypeText:
		w.Header().Set("Content-Type", api.ContentTypeText)
		_ = e.Graph.Write(w)
	case api.ContentTypeJSON:
		doc := api.GraphDoc{Name: e.Name, NumNodes: e.Graph.NumNodes(), Edges: make([][]int32, e.Graph.NumEdges())}
		for i := range doc.Edges {
			doc.Edges[i] = e.Graph.Edge(i)
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// handleStartCount serves POST /v1/graphs/{name}/count as a one-stage count
// plan (see startStage).
func (s *Server) handleStartCount(w http.ResponseWriter, r *http.Request, p params) {
	s.startStage(w, r, p["name"], api.StageCount, &api.CountRequest{})
}

// handleStartProfile serves POST /v1/graphs/{name}/profile as a one-stage
// profile plan (see startStage).
func (s *Server) handleStartProfile(w http.ResponseWriter, r *http.Request, p params) {
	s.startStage(w, r, p["name"], api.StageProfile, &api.ProfileRequest{})
}

// startStage starts a v1 count or profile job: it decodes the body into
// params, leniently (unknown fields are ignored), validates it with the
// pipeline's checks for that stage kind, and starts the one-stage plan as a
// job of the same kind, whose progress streams from /v1/jobs/{id}/events.
func (s *Server) startStage(w http.ResponseWriter, r *http.Request, name, kind string, params any) {
	e, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "graph %q not found", name)
		return
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(params); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	plan, err := pipeline.One(kind, params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.startJob(w, r, e, kind, plan)
}

// writeJob renders a job resource with its canonical Location.
func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, code, j.snapshot())
}

// handleJobs serves GET /v1/jobs: every retained job, newest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, _ params) {
	writeJSON(w, http.StatusOK, api.JobList{Jobs: s.jobs.list()})
}

// handleJob serves GET /v1/jobs/{id}: the poll half of the job protocol.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, p params) {
	j, ok := s.jobs.get(p["id"])
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", p["id"])
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobEvents serves GET /v1/jobs/{id}/events: an NDJSON stream of
// progress events followed by exactly one terminal result or error event.
// Subscribing to a finished job replays the terminal event immediately.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, p params) {
	j, ok := s.jobs.get(p["id"])
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", p["id"])
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the response head out now: a subscriber to a still-queued
		// job must see the 200 and start reading before the first event,
		// not block behind it.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(ev api.JobEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	sub := j.subscribe()
	defer j.unsubscribe(sub)
	for {
		select {
		case ev := <-sub:
			emit(ev)
		case <-j.doneCh:
			// Drain progress that raced the finish so the terminal event
			// stays last on the wire.
			for {
				select {
				case ev := <-sub:
					emit(ev)
					continue
				default:
				}
				break
			}
			emit(j.terminalEvent())
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics serves GET /v1/metrics: the full Prometheus text exposition
// rendered by the obs registry. Every family mochyd exposes — request,
// job, cache, kernel, store, and runtime — registers there; this handler
// owns no metric lines of its own. Mirrored gauges are refreshed by the
// registry's scrape hook (see collectMetrics) before rendering.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ params) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.mets.reg.WriteProm(w)
}
