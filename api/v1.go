// Package api defines the versioned mochyd wire protocol: the JSON document
// shapes exchanged on every /v1 endpoint, the media types the server
// negotiates, and the framed binary graph transport. Both the server
// (mochy/internal/server) and the client SDK (mochy/client) build on this
// package, so a request marshalled by one side always matches what the other
// decodes.
//
// The v1 surface:
//
//	GET    /v1/healthz                   Health
//	GET    /v1/metrics                   plaintext counters
//	GET    /v1/graphs                    GraphList
//	PUT    /v1/graphs/{name}             upload (binary | text | JSON by Content-Type) -> LoadResult
//	GET    /v1/graphs/{name}             download (binary | text | JSON by Accept)
//	DELETE /v1/graphs/{name}             DeleteResult
//	GET    /v1/graphs/{name}/stats       Stats
//	POST   /v1/graphs/{name}/count       CountRequest -> 202 Job
//	POST   /v1/graphs/{name}/profile     ProfileRequest -> 202 Job
//	POST   /v1/graphs/{name}/pipeline    PipelineRequest -> 202 Job
//	GET    /v1/jobs                      JobList
//	GET    /v1/jobs/{id}                 Job
//	GET    /v1/jobs/{id}/events          NDJSON JobEvent stream
//	POST   /v1/graphs/{name}/edges       EdgesRequest -> MutateResult
//	GET    /v1/graphs/{name}/edges       EdgeList
//	DELETE /v1/graphs/{name}/edges/{id}  MutateResult
//	PATCH  /v1/graphs/{name}             PatchRequest -> MutateResult
//	GET    /v1/graphs/{name}/counts      LiveCounts
//	POST   /v1/graphs/{name}/snapshot    SnapshotRequest -> SnapshotResult
//	POST   /v1/streams/{name}            NDJSON hyperedge ingest -> IngestResult
//	GET    /v1/streams/{name}            IngestResult (estimator state)
//
// Only /v1 paths are served; any other path answers 404.
package api

import (
	"encoding/json"
	"time"
)

// Media types negotiated on the graph transport endpoints.
const (
	// ContentTypeBinary is the framed mochy binary graph format: an 8-byte
	// little-endian payload length followed by the hypergraph binary
	// encoding (see WriteGraph / ReadGraph).
	ContentTypeBinary = "application/x-mochy-binary"
	// ContentTypeText is the whitespace hyperedge-list text format.
	ContentTypeText = "text/plain"
	// ContentTypeJSON is the JSON graph document (GraphJSON).
	ContentTypeJSON = "application/json"
	// ContentTypeNDJSON is newline-delimited JSON, used by job event
	// streams and hyperedge stream ingest.
	ContentTypeNDJSON = "application/x-ndjson"
)

// Counting algorithms accepted by CountRequest.Algorithm.
const (
	AlgoExact = "exact"        // MoCHy-E
	AlgoEdge  = "edge-sample"  // MoCHy-A
	AlgoWedge = "wedge-sample" // MoCHy-A+
)

// Job lifecycle states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job kinds.
const (
	JobKindCount   = "count"
	JobKindProfile = "profile"
)

// Job event types on /v1/jobs/{id}/events.
const (
	EventProgress = "progress"
	EventResult   = "result"
	EventError    = "error"
)

// TraceHeader is the request/response header carrying a trace id. A client
// may send one (1-64 characters of [0-9A-Za-z_-]) to correlate server-side
// spans and logs with its own telemetry; the server echoes the id it used —
// the inbound one when valid, a freshly minted one otherwise — on every
// response. Spans recorded under a trace are queryable at
// GET /v1/admin/traces, and jobs started by a traced request carry the id
// in Job.Trace and on every JobEvent.
const TraceHeader = "X-Mochy-Trace"

// Error is the JSON envelope of every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// Stats is the structural summary of a registered hypergraph.
type Stats struct {
	NumNodes       int         `json:"num_nodes"`
	NumEdges       int         `json:"num_edges"`
	TotalIncidence int         `json:"total_incidence"`
	MaxEdgeSize    int         `json:"max_edge_size"`
	MeanEdgeSize   float64     `json:"mean_edge_size"`
	MaxDegree      int         `json:"max_degree"`
	MeanDegree     float64     `json:"mean_degree"`
	SizeHistogram  map[int]int `json:"size_histogram"`
	DegreeHist     map[int]int `json:"degree_histogram"`
}

// GraphDoc is the JSON transport form of a hypergraph, accepted on upload
// with Content-Type application/json and returned on download with Accept
// application/json.
type GraphDoc struct {
	Name     string    `json:"name,omitempty"`
	NumNodes int       `json:"num_nodes,omitempty"`
	Edges    [][]int32 `json:"edges,omitempty"`
	// Text carries the whitespace hyperedge-list form inside a JSON upload;
	// exactly one of Text and Edges may be set.
	Text string `json:"text,omitempty"`
}

// LoadResult answers a graph upload.
type LoadResult struct {
	Name     string `json:"name"`
	Replaced bool   `json:"replaced"`
	Stats    Stats  `json:"stats"`
}

// GraphList answers GET /v1/graphs.
type GraphList struct {
	Graphs []string `json:"graphs"`
	Live   []string `json:"live"`
}

// DeleteResult answers DELETE /v1/graphs/{name}.
type DeleteResult struct {
	Deleted     string `json:"deleted"`
	Static      bool   `json:"static"`
	Live        bool   `json:"live"`
	CachePurged int    `json:"cache_purged"`
}

// CountRequest is the POST /v1/graphs/{name}/count body. A count job runs
// as a one-stage pipeline plan whose count stage shares its cache entries
// with pipeline count stages.
type CountRequest struct {
	// Algorithm is "exact" (default), "edge-sample" or "wedge-sample".
	Algorithm string `json:"algorithm,omitempty"`
	// Samples is the sampling budget; required for the sampling algorithms,
	// in [1, 2^31-1].
	Samples int `json:"samples,omitempty"`
	// Seed makes sampling estimates reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the per-job parallelism. 0 means min(GOMAXPROCS, the
	// server's max-workers-per-job cap): more workers than scheduler
	// threads add overhead, not speed, so an unset value never overshoots
	// the machine. Values above the cap clamp to it.
	Workers int `json:"workers,omitempty"`
}

// CountResult is the result payload of a count job.
type CountResult struct {
	Graph        string    `json:"graph"`
	Algorithm    string    `json:"algorithm"`
	Counts       []float64 `json:"counts"`
	Total        float64   `json:"total"`
	OpenFraction float64   `json:"open_fraction"`
	Cached       bool      `json:"cached"`
	ElapsedMS    float64   `json:"elapsed_ms"`
}

// ProfileRequest is the POST /v1/graphs/{name}/profile body. A profile job
// runs as a one-stage pipeline plan: the profile is the Profile of the
// Chung-Lu null_model stage with the same randomizations and seed, and the
// two share one cached ensemble.
type ProfileRequest struct {
	// Randomizations is the number of Chung-Lu null copies: default 3,
	// accepted range [1, 64], since each copy costs one full exact count.
	Randomizations int `json:"randomizations,omitempty"`
	// Seed drives the null-model generation.
	Seed int64 `json:"seed,omitempty"`
	// Workers is the per-count parallelism; 0 means
	// min(GOMAXPROCS, the server's max-workers-per-job cap).
	Workers int `json:"workers,omitempty"`
}

// ProfileResult is the result payload of a profile job.
type ProfileResult struct {
	Graph          string    `json:"graph"`
	Randomizations int       `json:"randomizations"`
	Seed           int64     `json:"seed"`
	Profile        []float64 `json:"profile"`
	Norm           float64   `json:"norm"`
	Cached         bool      `json:"cached"`
	ElapsedMS      float64   `json:"elapsed_ms"`
}

// Job is one asynchronous counting or profiling job. Result is set once
// State is "done": a CountResult for kind "count", a ProfileResult for kind
// "profile". Error is set once State is "failed".
type Job struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Graph      string          `json:"graph"`
	Trace      string          `json:"trace,omitempty"`
	State      string          `json:"state"`
	Done       int             `json:"done,omitempty"`
	Total      int             `json:"total,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Error      string          `json:"error,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
}

// Terminal reports whether the job has finished, successfully or not.
func (j *Job) Terminal() bool { return j.State == JobDone || j.State == JobFailed }

// CountResult decodes the job's result as a CountResult.
func (j *Job) CountResult() (CountResult, error) {
	var r CountResult
	err := json.Unmarshal(j.Result, &r)
	return r, err
}

// ProfileResult decodes the job's result as a ProfileResult.
func (j *Job) ProfileResult() (ProfileResult, error) {
	var r ProfileResult
	err := json.Unmarshal(j.Result, &r)
	return r, err
}

// JobList answers GET /v1/jobs.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// JobEvent is one NDJSON line of a /v1/jobs/{id}/events stream: progress
// events while the job runs, then exactly one terminal "result" or "error"
// event. Pipeline jobs additionally interleave "stage_start"/"stage_done"
// events, and stamp Stage on the progress events emitted inside a stage.
// Count and profile jobs forward only their one stage's progress, unstamped:
// anchor hyperedges for an exact count, finished null copies for a profile.
type JobEvent struct {
	Type   string          `json:"type"`
	Done   int             `json:"done,omitempty"`
	Total  int             `json:"total,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Stage identifies the pipeline stage an event belongs to; empty on
	// non-pipeline jobs and on the terminal event.
	Stage string `json:"stage,omitempty"`
	// Kind is the stage's operator kind on stage_start/stage_done events.
	Kind string `json:"kind,omitempty"`
	// Cached reports, on stage_done events, whether the stage was served
	// from the result cache.
	Cached bool `json:"cached,omitempty"`
	// ElapsedMS is the stage's wall-clock duration on stage_done events.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Trace is the id of the trace that started the job, stamped on every
	// event so a stream consumer can join events against server-side spans
	// and logs.
	Trace string `json:"trace,omitempty"`
}

// TraceAttr is one key/value annotation on a recorded span.
type TraceAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceSpan is one recorded span of a trace. Parent is the SpanID of the
// enclosing span, 0 for a root; span ids are unique within the server's
// flight recorder, so (Parent, ID) edges rebuild the span tree.
type TraceSpan struct {
	Name       string      `json:"name"`
	ID         uint64      `json:"id"`
	Parent     uint64      `json:"parent,omitempty"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Attrs      []TraceAttr `json:"attrs,omitempty"`
}

// Trace is one request's (or job's) span tree as retained by the server's
// flight recorder. Root names the top-level span; Start and DurationMS span
// the earliest start to the latest end across all recorded spans.
type Trace struct {
	ID         string      `json:"id"`
	Root       string      `json:"root"`
	Start      time.Time   `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Spans      []TraceSpan `json:"spans"`
}

// TraceList answers GET /v1/admin/traces, newest trace first.
type TraceList struct {
	Traces []Trace `json:"traces"`
}

// EdgesRequest is the POST /v1/graphs/{name}/edges body: a batch of
// hyperedges to insert into the live graph, applied in order.
type EdgesRequest struct {
	Edges [][]int32 `json:"edges"`
}

// PatchRequest is the PATCH /v1/graphs/{name} body: a mixed delta. Deletes
// apply first (in order), then inserts.
type PatchRequest struct {
	Deletes []int32   `json:"deletes,omitempty"`
	Inserts [][]int32 `json:"inserts,omitempty"`
}

// OpResult is one applied (or failed) live-graph mutation.
type OpResult struct {
	Op    string `json:"op"` // "insert" or "delete"
	ID    int32  `json:"id"`
	Error string `json:"error,omitempty"`
}

// MutateResult answers every live-graph mutation endpoint with per-op
// outcomes and the always-current exact counts after the batch.
type MutateResult struct {
	Graph   string     `json:"graph"`
	Applied int        `json:"applied"`
	Version uint64     `json:"version"`
	Edges   int        `json:"edges"`
	Results []OpResult `json:"results"`
	Counts  []float64  `json:"counts"`
	Total   float64    `json:"total"`
}

// EdgeList answers GET /v1/graphs/{name}/edges.
type EdgeList struct {
	Graph   string  `json:"graph"`
	Edges   int     `json:"edges"`
	IDs     []int32 `json:"ids"`
	Version uint64  `json:"version"`
}

// StreamState is the reservoir estimator attached to a live graph.
type StreamState struct {
	Capacity       int       `json:"capacity"`
	EdgesSeen      int64     `json:"edges_seen"`
	ReservoirSize  int       `json:"reservoir_size"`
	Estimates      []float64 `json:"estimates"`
	EstimatedTotal float64   `json:"estimated_total"`
}

// LiveCounts answers GET /v1/graphs/{name}/counts: maintained exact counts
// read in O(1), with reservoir estimates side by side when the graph is fed
// by a stream.
type LiveCounts struct {
	Graph        string       `json:"graph"`
	Version      uint64       `json:"version"`
	Edges        int          `json:"edges"`
	Wedges       int64        `json:"wedges"`
	Counts       []float64    `json:"counts"`
	Total        float64      `json:"total"`
	OpenFraction float64      `json:"open_fraction"`
	Stream       *StreamState `json:"stream,omitempty"`
}

// SnapshotRequest is the optional POST /v1/graphs/{name}/snapshot body.
type SnapshotRequest struct {
	// As names the immutable registry entry to create; empty means the live
	// graph's own name.
	As string `json:"as,omitempty"`
}

// SnapshotResult answers a snapshot.
type SnapshotResult struct {
	Graph    string `json:"graph"`
	As       string `json:"as"`
	Version  uint64 `json:"version"`
	Replaced bool   `json:"replaced"`
	Stats    Stats  `json:"stats"`
}

// IngestResult answers POST /v1/streams/{name} (and GET, where only the
// state fields are populated).
type IngestResult struct {
	Stream     string       `json:"stream"`
	Ingested   int          `json:"ingested"`
	Inserted   int          `json:"inserted"`
	Duplicates int          `json:"duplicates"`
	Version    uint64       `json:"version"`
	Edges      int          `json:"edges"`
	Counts     []float64    `json:"counts"`
	Total      float64      `json:"total"`
	Estimator  *StreamState `json:"estimator,omitempty"`
	Error      string       `json:"error,omitempty"`
}

// CheckpointRequest is the optional POST /v1/admin/checkpoint body. An
// empty Graphs list checkpoints every live graph.
type CheckpointRequest struct {
	Graphs []string `json:"graphs,omitempty"`
}

// CheckpointedGraph reports one live graph's checkpoint: its WAL was folded
// into a fresh base segment and truncated, so recovery replays only
// mutations applied after this point.
type CheckpointedGraph struct {
	Graph      string `json:"graph"`
	Version    uint64 `json:"version"`
	Edges      int    `json:"edges"`
	ReplayFrom uint64 `json:"replay_from"`
	Error      string `json:"error,omitempty"`
}

// CheckpointResult answers POST /v1/admin/checkpoint.
type CheckpointResult struct {
	Checkpointed []CheckpointedGraph `json:"checkpointed"`
	ElapsedMS    float64             `json:"elapsed_ms"`
}

// StoreStatus answers GET /v1/admin/store: the persistence subsystem's
// footprint and counters. Enabled is false (and everything else zero) when
// mochyd runs without -data-dir.
type StoreStatus struct {
	Enabled          bool    `json:"enabled"`
	Dir              string  `json:"dir,omitempty"`
	Graphs           int     `json:"graphs"`
	LiveGraphs       int     `json:"live_graphs"`
	SegmentBytes     int64   `json:"segment_bytes"`
	WALBytes         int64   `json:"wal_bytes"`
	WALRecords       uint64  `json:"wal_records"`
	WALSyncs         uint64  `json:"wal_syncs"`
	Checkpoints      uint64  `json:"checkpoints"`
	RecoveredGraphs  int     `json:"recovered_graphs"`
	RecoveredLive    int     `json:"recovered_live"`
	RecoveredRecords int     `json:"recovered_wal_records"`
	RecoveryMS       float64 `json:"recovery_ms"`
}

// StoreReadiness is the persistence half of a Readiness report.
type StoreReadiness struct {
	// Recovered reports whether boot recovery has replayed the store into
	// the registries; a daemon serving before recovery would answer reads
	// from an empty world.
	Recovered bool `json:"recovered"`
	// Flushed reports that no appended WAL record is awaiting an fsync.
	// Group commit syncs before every ack, so this is false only while a
	// mutation batch is mid-commit.
	Flushed bool `json:"flushed"`
	// PendingWALRecords is the number of records behind Flushed == false.
	PendingWALRecords uint64 `json:"pending_wal_records"`
	WALBytes          int64  `json:"wal_bytes"`
}

// Readiness answers GET /v1/admin/healthz: whether the daemon should be
// receiving traffic right now, with the state that decided it. The endpoint
// answers 200 when Ready and 503 otherwise (body present either way), so
// load balancers and harnesses can gate on the status code alone.
type Readiness struct {
	Ready bool `json:"ready"`
	// Status is "ready", "saturated" (job queue over the backpressure
	// budget) or "recovering" (persistence configured but not yet
	// replayed).
	Status       string `json:"status"`
	Graphs       int    `json:"graphs"`
	LiveGraphs   int    `json:"live_graphs"`
	PoolActive   int    `json:"pool_active"`
	PoolCapacity int    `json:"pool_capacity"`
	QueueDepth   int    `json:"queue_depth"`
	// Store is nil when mochyd runs in-memory only.
	Store *StoreReadiness `json:"store,omitempty"`
}

// Health answers GET /v1/healthz.
type Health struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Graphs        int    `json:"graphs"`
	LiveGraphs    int    `json:"live_graphs"`
	CacheEntries  int    `json:"cache_entries"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	ActiveJobs    int    `json:"active_jobs"`
	JobCapacity   int    `json:"job_capacity"`
	QueueDepth    int    `json:"queue_depth"`
}
