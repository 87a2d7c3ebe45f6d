package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"mochy/internal/generator"
	"mochy/internal/mochy"
	"mochy/internal/projection"
	"mochy/internal/stats"
)

// Figure8Point is one (algorithm, sample ratio) measurement: mean elapsed
// time and mean±stderr relative error over Trials runs.
type Figure8Point struct {
	Algorithm   string // "MoCHy-A" or "MoCHy-A+"
	SampleRatio float64
	ElapsedMS   float64
	RelErrMean  float64
	RelErrSE    float64
}

// Figure8Dataset is the speed-accuracy frontier of one dataset, plus the
// exact-counter baseline time: ExactMS times MoCHy-E as the paper's
// Algorithm 2 (mochy.CountPairs), so the speed ratios stay comparable with
// the paper's, and OrientedMS times the oriented counter that
// mochy.CountExact runs, which reports the same counts (the kernel oracle
// tests check both against brute force).
type Figure8Dataset struct {
	Dataset    string
	ExactMS    float64
	OrientedMS float64
	Points     []Figure8Point
	// APlusAdvantage is the ratio of MoCHy-A to MoCHy-A+ mean relative
	// error at the largest common sample ratio (paper: up to 25x).
	APlusAdvantage float64
}

// Figure8Result covers the datasets where MoCHy-E terminates quickly, as in
// the paper's Figure 8.
type Figure8Result struct {
	Datasets []Figure8Dataset
	Trials   int
}

// figure8Names picks light datasets (the paper uses the six where MoCHy-E
// finishes within reason; we use one per structural flavor to bound bench
// time).
var figure8Names = []string{"email-Enron", "contact-high", "contact-primary"}

// RunFigure8 measures the speed/accuracy trade-off of MoCHy-A and MoCHy-A+
// against MoCHy-E at sample ratios 2.5%..25% (paper Section 4.5).
func RunFigure8(cfg Config, trials int) (*Figure8Result, error) {
	if trials < 2 {
		trials = 2
	}
	ratios := []float64{0.025, 0.05, 0.10, 0.15, 0.20, 0.25}
	res := &Figure8Result{Trials: trials}
	for _, name := range figure8Names {
		spec, err := findSpec(name)
		if err != nil {
			return nil, err
		}
		g := generator.Generate(cfg.scaled(spec))
		p := projection.Build(g)

		// A background context never cancels, so CountPairs cannot fail.
		start := time.Now()
		exact, _, _ := mochy.CountPairs(context.Background(), g, p, mochy.Options{Workers: cfg.Workers})
		exactMS := float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		mochy.CountExact(g, p, cfg.Workers)
		orientedMS := float64(time.Since(start).Microseconds()) / 1000

		ds := Figure8Dataset{Dataset: name, ExactMS: exactMS, OrientedMS: orientedMS}
		var lastErrA, lastErrAPlus float64
		for _, ratio := range ratios {
			s := max(1, int(ratio*float64(g.NumEdges())))
			r := max(1, int(ratio*float64(p.NumWedges())))
			aPoint := measureSampler(trials, func(trial int) mochy.Counts {
				return mochy.CountEdgeSamples(g, p, s, cfg.Seed+int64(trial), cfg.Workers)
			}, &exact)
			aPoint.Algorithm, aPoint.SampleRatio = "MoCHy-A", ratio
			apPoint := measureSampler(trials, func(trial int) mochy.Counts {
				return mochy.CountWedgeSamples(g, p, p, r, cfg.Seed+int64(trial), cfg.Workers)
			}, &exact)
			apPoint.Algorithm, apPoint.SampleRatio = "MoCHy-A+", ratio
			ds.Points = append(ds.Points, aPoint, apPoint)
			lastErrA, lastErrAPlus = aPoint.RelErrMean, apPoint.RelErrMean
		}
		if lastErrAPlus > 0 {
			ds.APlusAdvantage = lastErrA / lastErrAPlus
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

// measureSampler runs one sampling configuration `trials` times.
func measureSampler(trials int, run func(trial int) mochy.Counts, exact *mochy.Counts) Figure8Point {
	var elapsed float64
	errs := make([]float64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		start := time.Now()
		est := run(trial)
		elapsed += float64(time.Since(start).Microseconds()) / 1000
		errs = append(errs, est.RelativeError(exact))
	}
	return Figure8Point{
		ElapsedMS:  elapsed / float64(trials),
		RelErrMean: stats.Mean(errs),
		RelErrSE:   stats.StdErr(errs),
	}
}

// findSpec looks up a dataset spec by name.
func findSpec(name string) (generator.DatasetSpec, error) {
	for _, s := range generator.Datasets() {
		if s.Name == name {
			return s, nil
		}
	}
	return generator.DatasetSpec{}, fmt.Errorf("experiments: dataset %q missing", name)
}

// Render prints the frontier per dataset.
func (r *Figure8Result) Render(w io.Writer) error {
	for _, ds := range r.Datasets {
		fmt.Fprintf(w, "== %s (MoCHy-E: %.1f ms, %d trials) ==\n", ds.Dataset, ds.ExactMS, r.Trials)
		fmt.Fprintf(w, "MoCHy-E oriented (same counts): %.1f ms\n", ds.OrientedMS)
		tw := newTabWriter(w)
		fmt.Fprintln(tw, "algorithm\tsample ratio\telapsed (ms)\trel. error\t± stderr")
		for _, p := range ds.Points {
			fmt.Fprintf(tw, "%s\t%.1f%%\t%.2f\t%.4f\t%.4f\n",
				p.Algorithm, p.SampleRatio*100, p.ElapsedMS, p.RelErrMean, p.RelErrSE)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "MoCHy-A+ error advantage at 25%%: %.1fx\n", ds.APlusAdvantage)
	}
	return nil
}
