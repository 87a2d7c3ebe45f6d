package mochy

import (
	"math/rand"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/motif"
	"mochy/internal/projection"
	"mochy/internal/testutil"
)

// bruteCandidate classifies every pair of graph edges together with the
// candidate set directly from explicit node sets.
func bruteCandidate(g *hypergraph.Hypergraph, cand []int32) Counts {
	var out Counts
	candSet := make(map[int32]bool)
	for _, v := range cand {
		candSet[v] = true
	}
	setOf := func(e int) map[int32]bool {
		s := make(map[int32]bool)
		for _, v := range g.Edge(e) {
			s[v] = true
		}
		return s
	}
	inter := func(a, b map[int32]bool) int {
		n := 0
		for v := range a {
			if b[v] {
				n++
			}
		}
		return n
	}
	inter3 := func(a, b, c map[int32]bool) int {
		n := 0
		for v := range a {
			if b[v] && c[v] {
				n++
			}
		}
		return n
	}
	equal := func(a, b map[int32]bool) bool {
		return len(a) == len(b) && inter(a, b) == len(a)
	}
	n := g.NumEdges()
	for j := 0; j < n; j++ {
		sj := setOf(j)
		if equal(sj, candSet) {
			continue
		}
		for k := j + 1; k < n; k++ {
			sk := setOf(k)
			if equal(sk, candSet) {
				continue
			}
			v := motif.VennFromCardinalities(
				len(candSet), len(sj), len(sk),
				inter(candSet, sj), inter(sj, sk), inter(sk, candSet),
				inter3(candSet, sj, sk),
			)
			if id := motif.FromPattern(v.Pattern()); id != 0 {
				out[id-1]++
			}
		}
	}
	return out
}

func TestCountForNodeSetMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomHypergraph(rng, 20, 25, 5)
		p := projection.Build(g)
		// Absent candidate.
		candLen := 1 + rng.Intn(4)
		cand := make([]int32, candLen)
		for i := range cand {
			cand[i] = int32(rng.Intn(20))
		}
		got := CountForNodeSet(g, p, cand)
		want := bruteCandidate(g, normalizeNodes(cand))
		if got != want {
			t.Fatalf("seed %d cand %v: got %v, want %v", seed, cand, got.String(), want.String())
		}
		// Existing edge as candidate.
		e := rng.Intn(g.NumEdges())
		got = CountForNodeSet(g, p, g.Edge(e))
		want = bruteCandidate(g, g.Edge(e))
		if got != want {
			t.Fatalf("seed %d edge %d: got %v, want %v", seed, e, got.String(), want.String())
		}
	}
}

func TestCountForNodeSetEmptyAndDuplicates(t *testing.T) {
	g := paperExample()
	p := projection.Build(g)
	if got := CountForNodeSet(g, p, nil); got.Total() != 0 {
		t.Fatalf("empty candidate counted %v", got.String())
	}
	// Duplicated nodes in the candidate normalize away.
	a := CountForNodeSet(g, p, []int32{1, 2, 1, 2})
	b := CountForNodeSet(g, p, []int32{1, 2})
	if a != b {
		t.Fatalf("duplicate nodes change counts: %v vs %v", a.String(), b.String())
	}
	// Out-of-range nodes are ignored rather than panicking.
	c := CountForNodeSet(g, p, []int32{1, 2, 999})
	if c.Total() < 0 {
		t.Fatal("negative counts")
	}
}
