package pipeline

import (
	"encoding/json"
	"strings"
	"testing"

	"mochy/api"
)

// stage is a compact literal for building wire plans in tests.
func stage(id, kind, params string, after ...string) api.PipelineStage {
	s := api.PipelineStage{ID: id, Kind: kind, After: after}
	if params != "" {
		s.Params = json.RawMessage(params)
	}
	return s
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name      string
		stages    []api.PipelineStage
		maxStages int
		wantErr   string // substring of the error
	}{
		{"empty plan", nil, 0, "no stages"},
		{"over stage cap",
			[]api.PipelineStage{stage("a", "count", ""), stage("b", "rank", ""), stage("c", "anomaly", "")},
			2, "cap of 2"},
		{"unknown kind", []api.PipelineStage{stage("", "frobnicate", "")}, 0, `unknown stage kind "frobnicate"`},
		{"missing kind", []api.PipelineStage{stage("", "", "")}, 0, "kind is required"},
		{"duplicate ids",
			[]api.PipelineStage{stage("", "count", ""), stage("", "count", "")},
			0, "duplicate stage id"},
		{"undeclared dependency", []api.PipelineStage{stage("r", "rank", "", "ghost")}, 0, `undeclared stage "ghost"`},
		{"self dependency", []api.PipelineStage{stage("r", "rank", "", "r")}, 0, "depends on itself"},
		{"two-cycle",
			[]api.PipelineStage{stage("a", "count", "", "b"), stage("b", "rank", "", "a")},
			0, "dependency cycle"},
		{"cycle below a valid root",
			[]api.PipelineStage{
				stage("root", "count", ""),
				stage("a", "rank", "", "root", "c"),
				stage("b", "anomaly", "", "a"),
				stage("c", "cluster", "", "b"),
			},
			0, "dependency cycle"},
		{"unknown param field", []api.PipelineStage{stage("", "rank", `{"dampling": 0.9}`)}, 0, "invalid params"},
		{"malformed params", []api.PipelineStage{stage("", "count", `{"algorithm":`)}, 0, "invalid params"},
		{"count unknown algorithm", []api.PipelineStage{stage("", "count", `{"algorithm": "psychic"}`)}, 0, "unknown algorithm"},
		{"count sampling without samples", []api.PipelineStage{stage("", "count", `{"algorithm": "edge-sample"}`)}, 0, "samples must be positive"},
		{"count samples past 2^31-1", []api.PipelineStage{stage("", "count", `{"algorithm": "wedge-sample", "samples": 2147483648}`)}, 0, "at most 2147483647"},
		{"null model unknown", []api.PipelineStage{stage("", "null_model", `{"model": "uniform"}`)}, 0, "unknown null model"},
		{"chung-lu rejects swaps", []api.PipelineStage{stage("", "null_model", `{"swaps_per_incidence": 5}`)}, 0, "applies only to edge-swap"},
		{"too many randomizations", []api.PipelineStage{stage("", "null_model", `{"randomizations": 1000}`)}, 0, "randomizations must be in"},
		{"rank unknown weights", []api.PipelineStage{stage("", "rank", `{"weights": "vibes"}`)}, 0, "unknown weights"},
		{"rank damping out of range", []api.PipelineStage{stage("", "rank", `{"damping": 1.5}`)}, 0, "damping must be in"},
		{"negative top_k", []api.PipelineStage{stage("", "rank", `{"top_k": -3}`)}, 0, "top_k must be in"},
		{"oversized top_k", []api.PipelineStage{stage("", "anomaly", `{"top_k": 99999}`)}, 0, "top_k must be in"},
		{"temporal zero width", []api.PipelineStage{stage("", "temporal", `{"width": 0, "stride": 5}`)}, 0, "width and stride must be positive"},
		{"profile zero randomizations", []api.PipelineStage{stage("", "profile", `{"randomizations": -1}`)}, 0, "randomizations must be in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(&api.PipelineRequest{Stages: tc.stages}, tc.maxStages)
			if err == nil {
				t.Fatalf("Parse accepted plan, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseTopologicalOrder(t *testing.T) {
	// Declared backwards: rank depends on sig depends on count. Execution
	// order must follow the edges, not the declaration order.
	req := &api.PipelineRequest{Stages: []api.PipelineStage{
		stage("rank", "rank", "", "sig"),
		stage("sig", "null_model", "", "count"),
		stage("count", "count", ""),
	}}
	plan, err := Parse(req, 0)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var order []string
	for _, st := range plan.Stages {
		order = append(order, st.ID)
	}
	want := []string{"count", "sig", "rank"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	req := &api.PipelineRequest{Stages: []api.PipelineStage{
		stage("", "count", ""),
		stage("", "null_model", "", "count"),
		stage("", "rank", "", "null_model"),
	}}
	plan, err := Parse(req, 0)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if plan.Stages[0].ID != "count" {
		t.Fatalf("empty id defaulted to %q, want the kind", plan.Stages[0].ID)
	}
	cp := plan.Stages[0].Params.(*api.CountRequest)
	if cp.Algorithm != api.AlgoExact {
		t.Fatalf("count algorithm default = %q, want exact", cp.Algorithm)
	}
	np := plan.Stages[1].Params.(*api.NullModelParams)
	if np.Model != api.NullModelChungLu || np.Randomizations != 3 || np.Seed != 0 {
		t.Fatalf("null_model defaults = %+v, want chung-lu/3/seed 0", np)
	}
	rp := plan.Stages[2].Params.(*api.RankParams)
	if rp.Weights != api.RankWeightOverlap || rp.Damping != 0.85 || rp.TopK != 10 {
		t.Fatalf("rank defaults = %+v, want overlap/0.85/top 10", rp)
	}
}

func TestParseDuplicateEdgesTolerated(t *testing.T) {
	req := &api.PipelineRequest{Stages: []api.PipelineStage{
		stage("count", "count", ""),
		stage("rank", "rank", "", "count", "count"),
	}}
	if _, err := Parse(req, 0); err != nil {
		t.Fatalf("Parse rejected duplicate dependency edge: %v", err)
	}
}
