package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"mochy/internal/generator"
	"mochy/internal/mochy"
	"mochy/internal/projection"
)

// Figure10Point is one (algorithm, worker count) timing.
type Figure10Point struct {
	Algorithm string
	Workers   int
	ElapsedMS float64
	Speedup   float64
}

// Figure10Result reproduces Figure 10: wall-clock speedups of MoCHy-E and
// MoCHy-A+ as the worker count grows. MoCHy-E is timed as the paper's
// Algorithm 2 (mochy.CountPairs); "MoCHy-E oriented" rows time the oriented
// counter that mochy.CountExact runs. NumCPU records the cores available —
// on a single-core host the implementation still partitions work across
// goroutines but wall-clock speedup saturates at ~1x (see EXPERIMENTS.md).
type Figure10Result struct {
	Dataset string
	NumCPU  int
	Points  []Figure10Point
}

// RunFigure10 measures 1..maxWorkers on the threads-ubuntu stand-in (the
// paper's Figure 10 dataset).
func RunFigure10(cfg Config, maxWorkers int) (*Figure10Result, error) {
	if maxWorkers < 1 {
		maxWorkers = 8
	}
	spec, err := findSpec("threads-ubuntu")
	if err != nil {
		return nil, err
	}
	g := generator.Generate(cfg.scaled(spec))
	p := projection.Build(g)
	r := max(1000, int(0.05*float64(p.NumWedges())))

	res := &Figure10Result{Dataset: spec.Name, NumCPU: runtime.NumCPU()}
	measure := func(alg string, run func(workers int)) {
		var base float64
		for w := 1; w <= maxWorkers; w++ {
			start := time.Now()
			run(w)
			ms := float64(time.Since(start).Microseconds()) / 1000
			if w == 1 {
				base = ms
			}
			speedup := 0.0
			if ms > 0 {
				speedup = base / ms
			}
			res.Points = append(res.Points, Figure10Point{
				Algorithm: alg, Workers: w, ElapsedMS: ms, Speedup: speedup,
			})
		}
	}
	measure("MoCHy-E", func(w int) {
		// A background context never cancels, so CountPairs cannot fail.
		_, _, _ = mochy.CountPairs(context.Background(), g, p, mochy.Options{Workers: w})
	})
	measure("MoCHy-E oriented", func(w int) { mochy.CountExact(g, p, w) })
	measure("MoCHy-A+", func(w int) { mochy.CountWedgeSamples(g, p, p, r, cfg.Seed, w) })
	return res, nil
}

// Render prints the scaling table.
func (r *Figure10Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "== %s (host cores: %d) ==\n", r.Dataset, r.NumCPU)
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "algorithm\tworkers\telapsed (ms)\tspeedup")
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2fx\n", p.Algorithm, p.Workers, p.ElapsedMS, p.Speedup)
	}
	return tw.Flush()
}
