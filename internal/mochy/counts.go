// Package mochy implements the MoCHy family of h-motif counting algorithms
// from "Hypergraph Motifs: Concepts, Algorithms, and Discoveries" (VLDB
// 2020): the exact counter MoCHy-E (Algorithm 2, and an oriented variant
// that tallies open instances per anchor and lists closed ones once as
// triangles), the instance enumerator MoCHy-EENUM (Algorithm 3), and the
// two unbiased approximate counters MoCHy-A (hyperedge sampling,
// Algorithm 4) and MoCHy-A+ (hyperwedge sampling, Algorithm 5), each with
// parallel execution over worker goroutines (Section 3.4).
package mochy

import (
	"fmt"
	"math"
	"strings"

	"mochy/internal/motif"
)

// Counts holds one number per h-motif. Exact counters produce integers;
// sampling counters produce unbiased real-valued estimates.
type Counts [motif.Count]float64

// Get returns the count of motif id (1..26).
func (c *Counts) Get(id int) float64 { return c[id-1] }

// Set assigns the count of motif id (1..26).
func (c *Counts) Set(id int, v float64) { c[id-1] = v }

// add accumulates another count vector.
func (c *Counts) add(o *Counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// Total returns the total number of h-motif instances, Σ_t M[t].
func (c *Counts) Total() float64 {
	t := 0.0
	for _, v := range c {
		t += v
	}
	return t
}

// OpenFraction returns the fraction of instances whose motif is open
// (IDs 17-22), or 0 if there are no instances.
func (c *Counts) OpenFraction() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	open := 0.0
	for _, id := range motif.OpenIDs() {
		open += c.Get(id)
	}
	return open / total
}

// Fractions returns each motif's share of the total instance count.
func (c *Counts) Fractions() [motif.Count]float64 {
	var f [motif.Count]float64
	total := c.Total()
	if total == 0 {
		return f
	}
	for i, v := range c {
		f[i] = v / total
	}
	return f
}

// RelativeError returns the paper's aggregate error of an estimate against
// exact counts: Σ_t |M[t] - M̂[t]| / Σ_t M[t] (Section 4.5).
func (c *Counts) RelativeError(exact *Counts) float64 {
	num, den := 0.0, 0.0
	for i := range c {
		num += math.Abs(exact[i] - c[i])
		den += exact[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// String renders the counts as "t:count" pairs for the non-zero motifs.
func (c *Counts) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	first := true
	for id := 1; id <= motif.Count; id++ {
		v := c.Get(id)
		if v == 0 {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%d:%.6g", id, v)
	}
	sb.WriteByte(']')
	return sb.String()
}

// Ranks returns, for each motif ID 1..26, the rank of its count in
// descending order (rank 1 = most frequent). Ties break by motif ID so
// ranks are a permutation.
func (c *Counts) Ranks() [motif.Count + 1]int {
	type kv struct {
		id int
		v  float64
	}
	order := make([]kv, 0, motif.Count)
	for id := 1; id <= motif.Count; id++ {
		order = append(order, kv{id, c.Get(id)})
	}
	// Insertion sort: 26 elements, descending by count then ascending ID.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if b.v > a.v || (b.v == a.v && b.id < a.id) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	var ranks [motif.Count + 1]int
	for pos, e := range order {
		ranks[e.id] = pos + 1
	}
	return ranks
}
