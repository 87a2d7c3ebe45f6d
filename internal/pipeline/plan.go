// Package pipeline is mochyd's declarative plan engine: it validates and
// executes every job the server runs — the multi-stage analytics plans
// served by POST /v1/graphs/{name}/pipeline, and the one-stage plans behind
// POST /v1/graphs/{name}/count and /profile. It wires the library's
// analytics operators — counting, null-model significance (Chung-Lu and
// edge-swap ensembles), characteristic profiles, motif-aware PageRank,
// anomaly scoring, co-participation clustering, temporal evolution — behind
// one typed DAG of stages.
//
// A plan is parsed and validated up front (stage kinds, unique ids,
// dependency acyclicity, per-stage parameters, a stage-count cap), so a bad
// plan is a 400 before the 202 accept, never a failed job. Execution fans
// independent DAG branches out concurrently — a stage starts as soon as its
// After dependencies complete — while results report in a deterministic
// topological order; each stage's compute runs under the server's bounded
// job pool, its result flows through the partitioned result cache (keyed by
// graph identity + stage parameters, so a re-run sharing a plan prefix is a
// cache hit), and its lifecycle is reported as stage_start / progress /
// stage_done NDJSON events with spans and a per-stage duration histogram
// threaded through.
package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"mochy/api"
)

// DefaultMaxStages caps plan size when the server does not configure its
// own cap: enough for every sensible analysis chain, small enough that one
// plan cannot monopolize the job pool.
const DefaultMaxStages = 16

// maxTopK bounds every stage's top-k response size.
const maxTopK = 1024

// maxRandomizations bounds a null-model ensemble (and so a profile): each
// copy costs one full exact count.
const maxRandomizations = 64

// maxSamples bounds a sampling budget inside what the kernel can schedule
// (its int32 anchor space holds blocks of samples), so an oversized budget
// is a 400 before the job starts rather than a failed job.
const maxSamples = math.MaxInt32

// Stage is one validated node of a plan.
type Stage struct {
	ID    string
	Kind  string
	After []string
	// Params is the decoded kind-specific parameter struct:
	// *api.CountRequest, *api.NullModelParams, *api.RankParams,
	// *api.AnomalyParams, *api.ClusterParams, *api.TemporalParams or
	// *api.ProfileRequest, with defaults applied.
	Params any
}

// Plan is a validated pipeline: stages in execution (topological) order.
type Plan struct {
	Stages []*Stage
}

// Parse validates a wire plan into an executable one. maxStages <= 0
// selects DefaultMaxStages. The returned plan's stages are in a
// deterministic topological order: among ready stages, declaration order
// breaks ties, so identical requests always execute identically.
func Parse(req *api.PipelineRequest, maxStages int) (*Plan, error) {
	if maxStages <= 0 {
		maxStages = DefaultMaxStages
	}
	if len(req.Stages) == 0 {
		return nil, fmt.Errorf("plan has no stages")
	}
	if len(req.Stages) > maxStages {
		return nil, fmt.Errorf("plan has %d stages, exceeding the server's cap of %d", len(req.Stages), maxStages)
	}

	stages := make([]*Stage, len(req.Stages))
	index := make(map[string]int, len(req.Stages))
	for i := range req.Stages {
		ws := &req.Stages[i]
		id := ws.ID
		if id == "" {
			id = ws.Kind
		}
		if id == "" {
			return nil, fmt.Errorf("stage %d: kind is required", i)
		}
		if len(id) > 64 {
			return nil, fmt.Errorf("stage %q: id exceeds 64 characters", id[:64])
		}
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("duplicate stage id %q (give stages of the same kind explicit ids)", id)
		}
		params, err := parseParams(ws.Kind, ws.Params)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %w", id, err)
		}
		stages[i] = &Stage{ID: id, Kind: ws.Kind, After: ws.After, Params: params}
		index[id] = i
	}

	// Dependency edges must name declared stages; self-dependencies are
	// cycles of length one and get the clearer message.
	indeg := make([]int, len(stages))
	succ := make([][]int, len(stages))
	for i, st := range stages {
		seen := make(map[string]bool, len(st.After))
		for _, dep := range st.After {
			j, ok := index[dep]
			if !ok {
				return nil, fmt.Errorf("stage %q depends on undeclared stage %q", st.ID, dep)
			}
			if j == i {
				return nil, fmt.Errorf("stage %q depends on itself", st.ID)
			}
			if seen[dep] {
				continue // duplicate edge, harmless
			}
			seen[dep] = true
			succ[j] = append(succ[j], i)
			indeg[i]++
		}
	}

	// Kahn topological sort with a sorted ready set: deterministic order,
	// and a non-empty remainder is a cycle.
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]*Stage, 0, len(stages))
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		order = append(order, stages[i])
		for _, j := range succ[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(order) != len(stages) {
		var cyclic []string
		for i, d := range indeg {
			if d > 0 {
				cyclic = append(cyclic, stages[i].ID)
			}
		}
		return nil, fmt.Errorf("plan has a dependency cycle through stages %v", cyclic)
	}
	return &Plan{Stages: order}, nil
}

// decodeStrict unmarshals raw into out, rejecting unknown fields — a typo'd
// parameter name must be an error, not a silently applied default. A nil or
// empty document selects all defaults.
func decodeStrict(raw json.RawMessage, out any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("invalid params: %v", err)
	}
	return nil
}

// One builds the one-stage plan a v1 count or profile request runs as.
// params is the request, already decoded; it gets the same defaults and
// checks a pipeline stage of that kind gets.
func One(kind string, params any) (*Plan, error) {
	if err := check(params); err != nil {
		return nil, err
	}
	return &Plan{Stages: []*Stage{{ID: kind, Kind: kind, Params: params}}}, nil
}

// newParams allocates the parameter struct of each stage kind.
var newParams = map[string]func() any{
	api.StageCount:     func() any { return &api.CountRequest{} },
	api.StageNullModel: func() any { return &api.NullModelParams{} },
	api.StageRank:      func() any { return &api.RankParams{} },
	api.StageAnomaly:   func() any { return &api.AnomalyParams{} },
	api.StageCluster:   func() any { return &api.ClusterParams{} },
	api.StageTemporal:  func() any { return &api.TemporalParams{} },
	api.StageProfile:   func() any { return &api.ProfileRequest{} },
}

// parseParams decodes and validates the kind-specific parameter document,
// applying defaults in place.
func parseParams(kind string, raw json.RawMessage) (any, error) {
	mk, ok := newParams[kind]
	if !ok {
		return nil, fmt.Errorf("unknown stage kind %q (want %s, %s, %s, %s, %s, %s or %s)",
			kind, api.StageCount, api.StageNullModel, api.StageRank, api.StageAnomaly,
			api.StageCluster, api.StageTemporal, api.StageProfile)
	}
	p := mk()
	if err := decodeStrict(raw, p); err != nil {
		return nil, err
	}
	return p, check(p)
}

// check applies a stage's parameter defaults in place and validates them.
func check(params any) error {
	switch p := params.(type) {
	case *api.CountRequest:
		if p.Algorithm == "" {
			p.Algorithm = api.AlgoExact
		}
		switch p.Algorithm {
		case api.AlgoExact:
		case api.AlgoEdge, api.AlgoWedge:
			if p.Samples <= 0 || p.Samples > maxSamples {
				return fmt.Errorf("samples must be positive and at most %d for %s", maxSamples, p.Algorithm)
			}
		default:
			return fmt.Errorf("unknown algorithm %q (want %s, %s or %s)",
				p.Algorithm, api.AlgoExact, api.AlgoEdge, api.AlgoWedge)
		}

	case *api.NullModelParams:
		if p.Model == "" {
			p.Model = api.NullModelChungLu
		}
		switch p.Model {
		case api.NullModelChungLu:
			if p.SwapsPerIncidence != 0 {
				return fmt.Errorf("swaps_per_incidence applies only to %s", api.NullModelEdgeSwap)
			}
		case api.NullModelEdgeSwap:
			if p.SwapsPerIncidence < 0 {
				return fmt.Errorf("swaps_per_incidence must be non-negative")
			}
		default:
			return fmt.Errorf("unknown null model %q (want %s or %s)",
				p.Model, api.NullModelChungLu, api.NullModelEdgeSwap)
		}
		return checkRandomizations(&p.Randomizations)

	case *api.RankParams:
		if p.Weights == "" {
			p.Weights = api.RankWeightOverlap
		}
		switch p.Weights {
		case api.RankWeightOverlap, api.RankWeightMotif, api.RankWeightClosedMotif:
		default:
			return fmt.Errorf("unknown weights %q (want %s, %s or %s)",
				p.Weights, api.RankWeightOverlap, api.RankWeightMotif, api.RankWeightClosedMotif)
		}
		if p.Damping == 0 {
			p.Damping = 0.85
		}
		if p.Damping < 0 || p.Damping >= 1 {
			return fmt.Errorf("damping must be in [0, 1)")
		}
		if p.MaxIter < 0 {
			return fmt.Errorf("max_iter must be non-negative")
		}
		return clampTopK(&p.TopK)

	case *api.AnomalyParams:
		return clampTopK(&p.TopK)

	case *api.ClusterParams:
		if p.MinWeight < 0 {
			return fmt.Errorf("min_weight must be non-negative")
		}
		if p.MaxIter < 0 {
			return fmt.Errorf("max_iter must be non-negative")
		}
		return clampTopK(&p.TopK)

	case *api.TemporalParams:
		if p.Width <= 0 || p.Stride <= 0 {
			return fmt.Errorf("width and stride must be positive")
		}

	case *api.ProfileRequest:
		return checkRandomizations(&p.Randomizations)

	default:
		return fmt.Errorf("unhandled params type %T", params)
	}
	return nil
}

// checkRandomizations applies the default and cap shared by every ensemble
// size: each copy costs one full exact count.
func checkRandomizations(n *int) error {
	if *n == 0 {
		*n = 3
	}
	if *n < 1 || *n > maxRandomizations {
		return fmt.Errorf("randomizations must be in [1, %d]", maxRandomizations)
	}
	return nil
}

// clampTopK applies the default and cap shared by every top-k parameter.
func clampTopK(k *int) error {
	if *k == 0 {
		*k = 10
	}
	if *k < 1 || *k > maxTopK {
		return fmt.Errorf("top_k must be in [1, %d]", maxTopK)
	}
	return nil
}
