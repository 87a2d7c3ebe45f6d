package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"mochy/internal/generator"
	counting "mochy/internal/mochy"
	"mochy/internal/projection"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		p, want float64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {55, 6}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("percentile of one sample = %v, want 3", got)
	}
}

// A stalled op must raise the measured latency of the ops due after it,
// because latency counts from each op's due time, not from when a sender
// got to it.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	const stall = 80 * time.Millisecond
	out := openLoop(context.Background(), due, 1, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	// Op 2 starts at 20 ms and ends no earlier than 100 ms, so op 3 (due
	// at 30 ms) cannot finish before 100 ms: at least 70 ms late.
	if out[3].lat < 65*time.Millisecond || out[3].late < 65*time.Millisecond {
		t.Errorf("op due after the stall: latency %v, lateness %v; want both >= 65ms", out[3].lat, out[3].late)
	}
	if out[4].lat < 55*time.Millisecond {
		t.Errorf("second op due after the stall: latency %v, want >= 55ms", out[4].lat)
	}
	if out[2].lat < stall {
		t.Errorf("stalled op: latency %v, want >= %v", out[2].lat, stall)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a
		{Name: "a1", ID: 4, Parent: 2, Start: 15, End: 20}, // inside a
		{Name: "c", ID: 5, Parent: 1, Start: 90, End: 120}, // runs past root
		{Name: "other", ID: 6, Parent: 0, Start: 200, End: 210},
	}
	self := selfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100] = 100 - 60.
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 5, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endRoot := tr.root("op.x")
	endChild := tr.start("child")
	t0 := time.Now()
	tr.add("phase", t0, t0.Add(time.Millisecond))
	endChild()
	endSibling := tr.start("sibling")
	endSibling()
	endRoot()
	spans := tr.snapshot()
	parents := map[string]int{}
	for _, s := range spans {
		parents[s.Name] = s.Parent
		if s.Trace != 1 {
			t.Errorf("span %s in trace %d, want 1", s.Name, s.Trace)
		}
	}
	if parents["op.x"] != 0 || parents["child"] != 1 || parents["phase"] != 2 || parents["sibling"] != 1 {
		t.Errorf("parents = %v, want op.x root, child and sibling under it, phase under child", parents)
	}
}

func TestCheckersRejectBadOutputs(t *testing.T) {
	g := generator.Generate(generator.Config{Domain: generator.Email, Nodes: 40, Edges: 120, Seed: 3})
	ref := counting.CountExact(g, projection.Build(g), 1)
	got := append([]float64(nil), ref[:]...)
	if err := checkExact(got, &ref); err != nil {
		t.Fatalf("exact reference rejected: %v", err)
	}
	for i := range got {
		if got[i] > 0 {
			got[i]++
			break
		}
	}
	if err := checkExact(got, &ref); err == nil {
		t.Error("a corrupted count passed the exact check")
	}
	if err := checkExact(ref[:25], &ref); err == nil {
		t.Error("a truncated count vector passed the exact check")
	}

	est := append([]float64(nil), ref[:]...)
	if err := checkEstimate(est); err != nil {
		t.Errorf("valid estimate rejected: %v", err)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		est[4] = bad
		if err := checkEstimate(est); err == nil {
			t.Errorf("estimate with %v passed", bad)
		}
	}

	prof := make([]float64, 26)
	prof[0], prof[1] = 0.6, 0.8
	if err := checkProfile(prof); err != nil {
		t.Errorf("unit profile rejected: %v", err)
	}
	prof[1] = 0.7
	if err := checkProfile(prof); err == nil {
		t.Error("a profile with norm != 1 passed")
	}
}

// The accuracy check must pass MoCHy-A+ estimates at the census-sampled
// budget and fail an estimator that returns finite, non-negative but wrong
// counts, which the per-estimate check accepts.
func TestAccuracyCheckRejectsCorruptedEstimator(t *testing.T) {
	in, err := tableDataset("email-Enron", 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := computeReferences([]*graphInput{in}); err != nil {
		t.Fatal(err)
	}
	p := projection.Build(in.g)
	corruptions := map[string]func(counting.Counts) counting.Counts{
		"faithful": func(c counting.Counts) counting.Counts { return c },
		"zeros":    func(counting.Counts) counting.Counts { return counting.Counts{} },
		"inflated": func(c counting.Counts) counting.Counts {
			for i := range c {
				c[i] *= 1.2
			}
			return c
		},
		"shifted": func(c counting.Counts) counting.Counts { // total kept, motifs mixed up
			top := 0
			for i := range c {
				if c[i] > c[top] {
					top = i
				}
			}
			moved := c[top] / 4
			c[top] -= moved
			c[(top+1)%len(c)] += moved
			return c
		},
	}
	for name, corrupt := range corruptions {
		var relErrs []float64
		for seed := int64(1); seed <= 4; seed++ {
			est, err := counting.CountWedgeSamplesCtx(context.Background(), in.g, p, p, samples(in), seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			bad := corrupt(est)
			if err := checkEstimate(bad[:]); err != nil {
				t.Fatalf("%s: per-estimate check: %v", name, err)
			}
			relErrs = append(relErrs, bad.RelativeError(&in.ref))
		}
		err := checkAccuracy(relErrs, maxSampledRelErr)
		if name == "faithful" && err != nil {
			t.Errorf("faithful estimator rejected: %v", err)
		}
		if name != "faithful" && err == nil {
			t.Errorf("%s estimator passed with mean relative error %.4f", name, mean(relErrs))
		}
	}
}

// The reference counter must agree with the MoCHy-E kernel, and relabelling
// a graph for another seed must change neither its counts nor its wedges.
func TestReferencesAgreeAcrossSeedsAndKernel(t *testing.T) {
	var inputs []*graphInput
	for _, seed := range []int64{1, 7} {
		in, err := tableDataset("email-Enron", 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, in)
	}
	if err := computeReferences(inputs); err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		p := projection.Build(in.g)
		if kernel := counting.CountExact(in.g, p, 2); kernel != in.ref {
			t.Errorf("reference %v, kernel %v", in.ref.String(), kernel.String())
		}
		if in.wedges != p.NumWedges() {
			t.Errorf("reference counts %d wedges, the projection %d", in.wedges, p.NumWedges())
		}
	}
	if inputs[0].ref != inputs[1].ref || inputs[0].g.NumEdges() != inputs[1].g.NumEdges() {
		t.Errorf("relabelling changed the graph: counts %v vs %v", inputs[0].ref.String(), inputs[1].ref.String())
	}
}

func TestServeStreamPrefix(t *testing.T) {
	w := newServe()
	trace := config{workload: "serve-mixed", seed: 5, quick: true, trace: true}
	if err := w.prepare(trace); err != nil {
		t.Fatal(err)
	}
	short := w.ops
	e2e := trace
	e2e.trace, e2e.window = false, 2*time.Second
	if err := w.prepare(e2e); err != nil {
		t.Fatal(err)
	}
	if len(w.ops) <= len(short) {
		t.Fatalf("end-to-end stream has %d ops, traced %d", len(w.ops), len(short))
	}
	for i := range short {
		a, b := short[i], w.ops[i]
		if a.kind != b.kind || a.due != b.due || a.del != b.del || a.seed != b.seed || len(a.insert) != len(b.insert) {
			t.Fatalf("op %d differs between the traced and end-to-end streams", i)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload, at quick scale, must pass its output checks and print
// every metric BENCHMARK.json names, with its unit: end-to-end metrics in
// the untraced run, per-layer metrics in the traced one.
func TestQuickWorkloadsReportEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "2", "--seconds", "0.3", "--trace", trace, "--quick", "--workdir", dir}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s%s", wl.Name, trace, code, stdout.String(), stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%s: last line is not the result: %v", wl.Name, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s in %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}
