package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mochy/client"
)

// workload is one benchmark input set and traffic pattern. Op i is the
// i-th request of its stream; the end-to-end run sends ops through the
// client SDK, and the traced run replays the same ops on in-process layers
// (direct) and once more through the SDK.
type workload interface {
	// prepare generates the inputs for the seed and their references.
	prepare(cfg config) error
	// durable reports whether the daemon runs with a store.
	durable() bool
	// setups is how many times a run sets up the daemon; setup_s is the
	// median.
	setups() int
	// senders is the number of client goroutines sending requests.
	senders() int
	// setup brings a freshly started daemon to the state the first
	// measured op expects.
	setup(ctx context.Context, c *client.Client, chk *checker) error
	// measure sends ops for the measurement window.
	measure(ctx context.Context, c *client.Client, window time.Duration, chk *checker) (*measurement, error)
	// finish checks state the ops left behind.
	finish(ctx context.Context, c *client.Client, chk *checker) error
	// notes are workload diagnostics for the report; none is gated.
	notes() []string

	// traceOps is the length of the traced replay.
	traceOps() int
	class(i int) string
	openLocal(ctx context.Context, l *layers) error
	direct(ctx context.Context, l *layers, i int, chk *checker) error
	sdk(ctx context.Context, c *client.Client, i int, chk *checker) error
}

// opSample is one measured op.
type opSample struct {
	class string
	lat   time.Duration
	err   error
}

// measurement is what the measured phase of an end-to-end run produced.
type measurement struct {
	ops    []opSample
	rounds int       // closed loop: whole rounds run
	late   []float64 // open loop: how late each op started, ms
}

// opTiming is one open-loop op: latency and lateness both count from the
// op's due time.
type opTiming struct {
	lat, late time.Duration
	err       error
}

// openLoop runs op i at its due offset from now on up to senders
// goroutines taken in due order. Each op is timed from when it was due,
// so an op that waits for a sender stuck on a slow predecessor carries
// that wait in its latency; late is how long after its due time it was
// actually sent.
func openLoop(ctx context.Context, due []time.Duration, senders int, do func(i int) error) []opTiming {
	out := make([]opTiming, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Now()
				err := do(i)
				out[i] = opTiming{lat: time.Since(at), late: sent.Sub(at), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runE2E is the end-to-end run: set up the daemon setups() times, measure
// on the last one with tracing off, and check every output.
func runE2E(ctx context.Context, cfg config, w workload, out io.Writer) (*result, error) {
	chk := &checker{}
	t0 := time.Now()
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	prep := time.Since(t0)
	// The inputs, references and op stream stay live for the whole run;
	// heap_live_mb is what the daemon keeps on top of them.
	inputsMB := liveHeapMB()

	var d *daemon
	var setupS []float64
	for i := 0; i < w.setups(); i++ {
		dir := ""
		if w.durable() {
			dir = filepath.Join(cfg.workdir, "tmp", fmt.Sprintf("data-%d-%d", os.Getpid(), i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		// Collect the previous set-up's garbage before the clock starts, so
		// no set-up pays for another's.
		runtime.GC()
		s0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, dir, 2*w.senders()); err != nil {
			return nil, fmt.Errorf("start daemon: %w", err)
		}
		if err := w.setup(ctx, d.c, chk); err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(s0).Seconds())
		if i < w.setups()-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("stop daemon: %w", err)
			}
		}
	}

	heap := startHeapSampler()
	m, err := w.measure(ctx, d.c, cfg.window, chk)
	peak := heap.stop()
	live := liveHeapMB() - inputsMB
	if err == nil {
		err = w.finish(ctx, d.c, chk)
	}
	if cerr := d.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop daemon: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	var lats []float64
	byClass := map[string][]float64{}
	failed := 0
	for _, op := range m.ops {
		if op.err != nil {
			failed++
			continue
		}
		lats = append(lats, ms(op.lat))
		byClass[op.class] = append(byClass[op.class], ms(op.lat))
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted)", len(m.ops))
	}

	fmt.Fprintf(out, "# run: window=%s setups=%d senders=%d rounds=%d ops=%d\n", cfg.window, w.setups(), w.senders(), m.rounds, len(m.ops))
	fmt.Fprintf(out, "# prep_s=%.4f (input generation and serial references; not gated)\n", prep.Seconds())
	fmt.Fprintf(out, "# live heap of the inputs, references and op stream: %.3f MB (left out of heap_live_mb)\n", inputsMB)
	fmt.Fprintf(out, "# setup_s samples: %.4f\n", setupS)
	for _, cls := range sortedKeys(byClass) {
		v := byClass[cls]
		fmt.Fprintf(out, "# class %-13s n=%-6d p50=%.4f ms  p99=%.4f ms\n", cls, len(v), percentile(v, 50), percentile(v, 99))
	}
	if len(m.late) > 0 {
		fmt.Fprintf(out, "# generator lateness: p50=%.4f ms  p99=%.4f ms (diagnostic)\n", percentile(m.late, 50), percentile(m.late, 99))
	}
	fmt.Fprintf(out, "# heap peak while measuring: %.3f MB, live objects and garbage sampled every 50 ms (diagnostic)\n", peak)
	fmt.Fprintf(out, "# error_rate=%.6f (%d of %d ops failed or refused)\n", float64(failed)/float64(len(m.ops)), failed, len(m.ops))
	for _, n := range w.notes() {
		fmt.Fprintf(out, "# %s\n", n)
	}
	chk.report(out)

	return &result{
		Correct:   chk.ok(),
		Attempted: len(m.ops),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setupS), "s"},
			"op_mean_ms":   {mean(lats), "ms"},
			"op_p50_ms":    {percentile(lats, 50), "ms"},
			"op_p95_ms":    {percentile(lats, 95), "ms"},
			"heap_live_mb": {live, "MB"},
		},
	}, nil
}

// runTraced replays traceOps() ops with spans around every layer call,
// each op once on the in-process layers and once through the SDK, writes
// the spans to <workdir>/trace and reports per-layer metrics.
func runTraced(ctx context.Context, cfg config, w workload, out io.Writer) (res *result, err error) {
	chk := &checker{}
	if err := w.prepare(cfg); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	tr := newTracer()
	l := newLayers(tr)
	var daemonDir string
	if w.durable() {
		localDir := filepath.Join(cfg.workdir, "tmp", fmt.Sprintf("replay-%d", os.Getpid()))
		daemonDir = filepath.Join(cfg.workdir, "tmp", fmt.Sprintf("data-%d", os.Getpid()))
		for _, dir := range []string{localDir, daemonDir} {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		if err := l.openStore(localDir); err != nil {
			return nil, fmt.Errorf("open replay store: %w", err)
		}
		defer os.RemoveAll(localDir)
	}
	defer func() {
		if cerr := l.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close replay layers: %w", cerr)
		}
	}()
	if err := w.openLocal(ctx, l); err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	d, err := startDaemon(ctx, daemonDir, 2)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	defer func() {
		if cerr := d.close(); err == nil && cerr != nil {
			err = fmt.Errorf("stop daemon: %w", cerr)
		}
	}()
	if err := w.setup(ctx, d.c, chk); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	h0, err := d.c.Health(ctx)
	if err != nil {
		return nil, err
	}

	n := w.traceOps()
	failed := 0
	for i := 0; i < n; i++ {
		cls := w.class(i)
		end := tr.root("op." + cls)
		derr := w.direct(ctx, l, i, chk)
		end()
		end = tr.root("client." + cls)
		serr := w.sdk(ctx, d.c, i, chk)
		end()
		if derr != nil || serr != nil {
			failed++
			fmt.Fprintf(out, "# op %d failed: direct=%v sdk=%v\n", i, derr, serr)
		}
	}
	h1, err := d.c.Health(ctx)
	if err != nil {
		return nil, err
	}
	if err := w.finish(ctx, d.c, chk); err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	path := filepath.Join(cfg.workdir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "ops": n}
	if err := writeSpans(path, meta, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	busy := rootTotal(spans, "op.")
	fmt.Fprintf(out, "# traced replay: %d ops, each in-process and through the SDK; spans in %s\n", n, path)
	writeLayerTable(out, layerStats(spans), rootTotal(spans, ""))
	hits, misses := h1.CacheHits-h0.CacheHits, h1.CacheMisses-h0.CacheMisses
	metrics := layerMetrics(spans, l, hitRatio(hits, misses))
	fmt.Fprintf(out, "# direct busy time %.3f ms; kernel.enumerate share %.1f%%, projection.build share %.1f%%\n",
		ms(busy), share(metrics["kernel.enumerate_ms"].Value, busy), share(metrics["projection.build_ms"].Value, busy))
	fmt.Fprintf(out, "# self time covers %.2f%% of root span time\n", 100*metrics["trace.self_coverage"].Value)
	chk.report(out)
	return &result{Correct: chk.ok(), Attempted: n, Failed: failed, Metrics: metrics}, nil
}

func share(partMS float64, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * partMS / ms(whole)
}

func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// overheads pairs the i-th direct root span with the i-th client span and
// returns client minus direct duration per op class, in ms: what HTTP, the
// job protocol and the SDK add to the same work.
func overheads(spans []span) map[string][]float64 {
	var direct, sdk []span
	for _, s := range spans {
		switch {
		case s.Parent != 0:
		case strings.HasPrefix(s.Name, "op."):
			direct = append(direct, s)
		case strings.HasPrefix(s.Name, "client."):
			sdk = append(sdk, s)
		}
	}
	out := map[string][]float64{}
	for i := 0; i < len(direct) && i < len(sdk); i++ {
		cls := strings.TrimPrefix(direct[i].Name, "op.")
		out[cls] = append(out[cls], ms(sdk[i].dur()-direct[i].dur()))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
