package server

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mochy/api"
	"mochy/internal/generator"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed exposition sample line.
type promSample struct {
	name   string
	labels []string // "k=v" pairs in exposition order
	value  float64
	line   string
}

// parseProm parses a Prometheus text exposition strictly: every line must
// be a HELP comment, a TYPE comment, or a sample, and the metadata must
// obey the format's grammar (HELP before TYPE before samples, one block
// per family, no interleaving). It fails the test on the first violation.
func parseProm(t *testing.T, body string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string) // family -> counter|gauge|histogram
	helped := make(map[string]bool)
	lastFamily := "" // family of the current metadata block
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", lineNo, line)
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: invalid family name %q", lineNo, name)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %q", lineNo, name)
			}
			helped[name] = true
			lastFamily = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", lineNo, typ)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE %q before its HELP", lineNo, name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			types[name] = typ
			lastFamily = name
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment form: %q", lineNo, line)
		default:
			s := parsePromSample(t, lineNo, line)
			fam := sampleFamily(s.name, types)
			if fam == "" {
				t.Fatalf("line %d: sample %q has no TYPE metadata", lineNo, s.name)
			}
			if fam != lastFamily {
				t.Fatalf("line %d: sample for family %q inside %q's block", lineNo, fam, lastFamily)
			}
			samples = append(samples, s)
		}
	}
	return samples, types
}

// parsePromSample parses `name{k="v",...} value` (labels optional).
func parsePromSample(t *testing.T, lineNo int, line string) promSample {
	t.Helper()
	s := promSample{line: line}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value: %q", lineNo, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !metricNameRe.MatchString(s.name) {
		t.Fatalf("line %d: invalid metric name %q", lineNo, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", lineNo, line)
		}
		for _, pair := range splitLabels(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !labelNameRe.MatchString(k) {
				t.Fatalf("line %d: malformed label %q", lineNo, pair)
			}
			if _, err := strconv.Unquote(v); err != nil {
				t.Fatalf("line %d: label value %s not a quoted string: %v", lineNo, v, err)
			}
			s.labels = append(s.labels, pair)
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: value %q: %v", lineNo, rest, err)
	}
	s.value = v
	return s
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// sampleFamily maps a sample name to its metadata family: histogram
// samples use the _bucket/_sum/_count suffixes of their family name.
func sampleFamily(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if fam, ok := strings.CutSuffix(name, suf); ok && types[fam] == "histogram" {
			return fam
		}
	}
	return ""
}

// TestMetricsScrapeGrammar is the observability acceptance test for the
// exposition itself: after real traffic (upload, count, live mutation,
// checkpoint, a 404), /v1/metrics must parse line-by-line as strict
// Prometheus text format — valid names, quoted labels, metadata blocks,
// no duplicate series — with coherent histograms and every pre-existing
// metric name still present byte-for-byte.
func TestMetricsScrapeGrammar(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ts, s, c := newDurableServer(t, dir)
	defer ts.Close()
	defer s.Close()

	g := generator.Generate(generator.Config{Domain: generator.Contact, Nodes: 40, Edges: 120, Seed: 11})
	if _, err := c.UploadGraph(ctx, "gram", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(ctx, "gram", api.CountRequest{Algorithm: api.AlgoExact, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertEdges(ctx, "glive", [][]int32{{0, 1, 2}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx, "no-such-graph"); err == nil {
		t.Fatal("stats on a missing graph should 404")
	}

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, body)
	if len(samples) == 0 {
		t.Fatal("no samples in exposition")
	}

	// No duplicate series: name + full label set must be unique.
	seen := make(map[string]string)
	for _, s := range samples {
		key := s.name + "{" + strings.Join(s.labels, ",") + "}"
		if prev, dup := seen[key]; dup {
			t.Fatalf("duplicate series %s:\n  %s\n  %s", key, prev, s.line)
		}
		seen[key] = s.line
	}

	// Histogram coherence per family+labelset: le values strictly
	// increasing, bucket counts cumulative, +Inf bucket == _count.
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		checkHistogram(t, fam, samples)
	}

	// Counters and gauges never render negative or non-finite values.
	for _, s := range samples {
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			t.Errorf("non-finite sample: %s", s.line)
		}
		if sampleFamily(s.name, types) != s.name {
			continue // histogram child, covered above
		}
		if types[s.name] == "counter" && s.value < 0 {
			t.Errorf("negative counter: %s", s.line)
		}
	}

	// Byte-compatibility anchors: every metric family the seed exposed,
	// plus this PR's additions, under their exact names.
	for _, fam := range []string{
		"mochyd_uptime_seconds", "mochyd_build_info", "mochyd_gomaxprocs",
		"mochyd_goroutines", "mochyd_mem_alloc_bytes", "mochyd_mem_sys_bytes",
		"mochyd_gc_cycles", "mochyd_graphs", "mochyd_live_graphs",
		"mochyd_cache_entries", "mochyd_cache_hits", "mochyd_cache_misses",
		"mochyd_cache_evictions", "mochyd_cache_partitions",
		"mochyd_cache_partition_entries", "mochyd_cache_partition_hits",
		"mochyd_cache_partition_expired",
		"mochyd_pool_active", "mochyd_pool_capacity", "mochyd_queue_depth",
		"mochyd_jobs_inflight", "mochyd_jobs_started_total",
		"mochyd_jobs_done_total", "mochyd_jobs_failed_total",
		"mochyd_span_duration_seconds",
		"mochyd_store_enabled", "mochyd_store_segments", "mochyd_store_live_wals",
		"mochyd_store_segment_bytes", "mochyd_store_wal_bytes",
		"mochyd_store_wal_records_total", "mochyd_store_wal_syncs_total",
		"mochyd_store_checkpoints_total", "mochyd_store_wal_fsync_seconds",
		"mochyd_store_checkpoint_seconds",
		"mochyd_requests_total", "mochyd_requests_unmatched_total",
		"mochyd_http_responses_total", "mochyd_http_request_duration_seconds",
		"mochyd_trace_spans_total",
	} {
		if _, ok := types[fam]; !ok {
			t.Errorf("exposition missing family %q", fam)
		}
	}

	// Spot-check semantics: the count ran, the 404 path counted, responses
	// carry status codes.
	wantSeries := []string{
		`mochyd_jobs_done_total 1`,
		`mochyd_store_checkpoints_total 1`,
	}
	for _, want := range wantSeries {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, `mochyd_http_responses_total{route="GET /v1/graphs/{name}/stats",code="404"} 1`) {
		t.Errorf("404 response not counted:\n%s", grepLines(body, "responses_total"))
	}
	if !strings.Contains(body, `mochyd_build_info{`) {
		t.Error("build_info has no labels")
	}
}

// checkHistogram validates one histogram family's bucket series.
func checkHistogram(t *testing.T, fam string, samples []promSample) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		count  float64
	}
	bySet := make(map[string]*series)
	get := func(labels []string) *series {
		var rest []string
		for _, p := range labels {
			if !strings.HasPrefix(p, "le=") {
				rest = append(rest, p)
			}
		}
		sort.Strings(rest)
		key := strings.Join(rest, ",")
		if bySet[key] == nil {
			bySet[key] = &series{}
		}
		return bySet[key]
	}
	for _, s := range samples {
		switch s.name {
		case fam + "_bucket":
			sr := get(s.labels)
			for _, p := range s.labels {
				if v, ok := strings.CutPrefix(p, "le="); ok {
					uq, _ := strconv.Unquote(v)
					le := math.Inf(1)
					if uq != "+Inf" {
						f, err := strconv.ParseFloat(uq, 64)
						if err != nil {
							t.Fatalf("%s: bad le %q", fam, uq)
						}
						le = f
					}
					sr.les = append(sr.les, le)
					sr.counts = append(sr.counts, s.value)
				}
			}
		case fam + "_count":
			get(s.labels).count = s.value
		}
	}
	for key, sr := range bySet {
		if len(sr.les) == 0 {
			t.Errorf("%s{%s}: no buckets", fam, key)
			continue
		}
		for i := 1; i < len(sr.les); i++ {
			if sr.les[i] <= sr.les[i-1] {
				t.Errorf("%s{%s}: le not increasing: %v", fam, key, sr.les)
			}
			if sr.counts[i] < sr.counts[i-1] {
				t.Errorf("%s{%s}: buckets not cumulative: %v", fam, key, sr.counts)
			}
		}
		if last := sr.les[len(sr.les)-1]; !math.IsInf(last, 1) {
			t.Errorf("%s{%s}: missing +Inf bucket", fam, key)
		}
		if got := sr.counts[len(sr.counts)-1]; got != sr.count {
			t.Errorf("%s{%s}: +Inf bucket %v != count %v", fam, key, got, sr.count)
		}
	}
}

// grepLines returns body's lines containing substr, for failure messages.
func grepLines(body, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}
