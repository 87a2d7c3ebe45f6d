package main

import (
	"fmt"
	"io"
	"math"
	"sync"

	counting "mochy/internal/mochy"
	"mochy/internal/motif"
)

// checkExact reports whether got is exactly the reference count vector.
func checkExact(got []float64, want *counting.Counts) error {
	if len(got) != motif.Count {
		return fmt.Errorf("%d counts, want %d", len(got), motif.Count)
	}
	for i, v := range got {
		if v != want[i] {
			return fmt.Errorf("motif %d: got %.17g, want %.17g", i+1, v, want[i])
		}
	}
	return nil
}

// checkEstimate reports whether every estimate is finite and non-negative.
func checkEstimate(got []float64) error {
	if len(got) != motif.Count {
		return fmt.Errorf("%d estimates, want %d", len(got), motif.Count)
	}
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("motif %d: estimate %v is not finite and non-negative", i+1, v)
		}
	}
	return nil
}

// Highest mean relative error of a run's MoCHy-A+ estimates that passes,
// about 1.5-2× the highest seen. Single-round census-sampled runs measured
// 0.034-0.053 over seeds 1-13, serve-mixed runs about 0.014, and --quick
// runs of either at most 0.18. An estimator that returns zeros, or twice
// the counts, has a relative error of 1.
const (
	maxSampledRelErr = 0.08 // census-sampled
	maxServeRelErr   = 0.03 // serve-mixed sample ops
	maxQuickRelErr   = 0.4  // either, at --quick scale
)

// checkAccuracy reports whether the mean relative error of a run's
// estimates is at most limit. It catches an estimator that returns finite
// but wrong counts, which checkEstimate accepts.
func checkAccuracy(relErrs []float64, limit float64) error {
	if m := mean(relErrs); !(m <= limit) {
		return fmt.Errorf("mean relative error %.4f over %d estimates, want at most %.4f", m, len(relErrs), limit)
	}
	return nil
}

// checkProfile reports whether p is a characteristic profile: 26 finite
// values with unit L2 norm.
func checkProfile(p []float64) error {
	if len(p) != motif.Count {
		return fmt.Errorf("%d profile entries, want %d", len(p), motif.Count)
	}
	norm := 0.0
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("profile entry %d is %v", i+1, v)
		}
		norm += v * v
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		return fmt.Errorf("profile norm %v, want 1", math.Sqrt(norm))
	}
	return nil
}

// toCounts copies a wire count vector into a Counts.
func toCounts(v []float64) counting.Counts {
	var c counting.Counts
	copy(c[:], v)
	return c
}

// checker collects output mismatches from any goroutine; the first few are
// kept for the report.
type checker struct {
	mu       sync.Mutex
	failures int
	first    []string
}

func (c *checker) fail(format string, a ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, a...))
	}
}

// check records err, prefixed by what, if it is non-nil.
func (c *checker) check(what string, err error) {
	if err != nil {
		c.fail("%s: %v", what, err)
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures == 0
}

// report prints whether every output was correct, with the first
// mismatches.
func (c *checker) report(out io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failures == 0 {
		fmt.Fprintln(out, "# checks: all outputs correct")
		return
	}
	fmt.Fprintf(out, "# checks: %d output mismatches\n", c.failures)
	for _, f := range c.first {
		fmt.Fprintf(out, "#   %s\n", f)
	}
}
