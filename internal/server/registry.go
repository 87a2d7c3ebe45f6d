// Package server implements mochyd, a long-lived HTTP/JSON service exposing
// the MoCHy engine to many concurrent clients. It holds a registry of named
// hypergraphs (loaded once, shared immutably across requests), a partitioned
// LRU result cache so repeated count/profile queries are served without
// recomputation, and a bounded worker pool that runs MoCHy-E / MoCHy-A /
// MoCHy-A+ jobs with per-request worker counts and sampling budgets,
// streaming progress for long exact counts.
package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
	"mochy/internal/shardmap"
)

// Entry is one registered hypergraph. The graph and its stats are immutable;
// the projected graph is materialized at most once, on first use, and shared
// by every subsequent request.
type Entry struct {
	Name  string
	Gen   uint64 // distinguishes same-name re-uploads in cache keys
	Graph *hypergraph.Hypergraph
	Stats hypergraph.Stats

	projOnce sync.Once
	proj     *projection.Projected
}

// ID is the entry's cache identity "name#generation": every cached result of
// the entry is keyed under it, so a re-upload never serves the replaced
// graph's results.
func (e *Entry) ID() string {
	return e.Name + "#" + strconv.FormatUint(e.Gen, 10)
}

// Projection returns the materialized projected graph of the entry, building
// it on first call. Concurrent callers share one build.
func (e *Entry) Projection() *projection.Projected {
	return e.projection(nil)
}

// projection is Projection for a caller that times the build: built, when
// non-nil, receives the build's start and end only on the call that ran it,
// so callers served an existing or shared build report nothing.
func (e *Entry) projection(built func(start, end time.Time)) *projection.Projected {
	e.projOnce.Do(func() {
		start := time.Now()
		e.proj = projection.Build(e.Graph)
		if built != nil {
			built(start, time.Now())
		}
	})
	return e.proj
}

// Registry maps names to immutable hypergraph entries. It is copy-on-write:
// Get is a lock-free atomic snapshot load (the per-request lookup must scale
// with GOMAXPROCS, not serialize on a registry lock), while Load and Delete
// clone-and-replace the map under a writer mutex. Loads replace atomically:
// requests running against a replaced entry keep their snapshot, while new
// requests see the new graph.
type Registry struct {
	gen    atomic.Uint64
	graphs *shardmap.COW[*Entry]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: shardmap.NewCOW[*Entry]()}
}

// Load registers g under name, replacing any previous graph of that name.
// It reports whether an existing entry was replaced.
func (r *Registry) Load(name string, g *hypergraph.Hypergraph) (*Entry, bool) {
	e := &Entry{
		Name:  name,
		Gen:   r.gen.Add(1),
		Graph: g,
		Stats: hypergraph.ComputeStats(g),
	}
	_, replaced := r.graphs.Store(name, e)
	return e, replaced
}

// Get returns the entry registered under name. It takes no lock.
func (r *Registry) Get(name string) (*Entry, bool) {
	return r.graphs.Get(name)
}

// Delete removes name from the registry, reporting whether it was present.
func (r *Registry) Delete(name string) bool {
	_, ok := r.graphs.Delete(name)
	return ok
}

// Names returns the registered graph names in sorted order.
func (r *Registry) Names() []string {
	return r.graphs.Keys()
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	return r.graphs.Len()
}
