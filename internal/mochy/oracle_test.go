package mochy

// The counting oracle: every exact path — the oriented counter behind
// CountExactOpts, the Algorithm-2 pair loop (CountPairs and the memoized
// projector), PerEdgeCounts, Enumerate, CountForNodeSet on every edge, and
// MoCHy-A+'s per-wedge walker on every hyperwedge — must agree with
// brute-force Classify over all O(|E|^3) triples, on seeded graphs of five
// families.
//
//	go test -count=20 -cpu 1,2,8 -run 'Oracle|Sampl|CountForNodeSet' ./internal/mochy
//	go test -run '^$' -fuzz FuzzCountOracle -fuzztime 20s ./internal/mochy

import (
	"context"
	"math/rand"
	"testing"

	"mochy/internal/hypergraph"
	"mochy/internal/projection"
	"mochy/internal/testutil"
)

// oracleGraph builds the oracle input of one family of testutil.Families
// from a seed.
func oracleGraph(family int, seed int64) *hypergraph.Hypergraph {
	return testutil.Families[family].Build(rand.New(rand.NewSource(seed)))
}

// bruteForceResult is the oracle's reference: aggregate counts, per-edge
// rows and the motif of every instance, from Classify on every triple.
type bruteForceResult struct {
	total     Counts
	per       [][]int64
	instances map[[3]int32]int
}

// bruteForce classifies all O(|E|^3) triples with Classify, which shares no
// code with the counting kernels.
func bruteForce(g *hypergraph.Hypergraph) bruteForceResult {
	n := g.NumEdges()
	r := bruteForceResult{per: make([][]int64, n), instances: make(map[[3]int32]int)}
	for e := range r.per {
		r.per[e] = make([]int64, 26)
	}
	for i := int32(0); int(i) < n; i++ {
		for j := i + 1; int(j) < n; j++ {
			for k := j + 1; int(k) < n; k++ {
				id := Classify(g, i, j, k)
				if id == 0 {
					continue
				}
				r.total[id-1]++
				r.per[i][id-1]++
				r.per[j][id-1]++
				r.per[k][id-1]++
				r.instances[[3]int32{i, j, k}] = id
			}
		}
	}
	return r
}

// bruteForceCounts is the aggregate part of bruteForce.
func bruteForceCounts(g *hypergraph.Hypergraph) Counts { return bruteForce(g).total }

// checkOracle asserts every exact counting path, and the raw per-wedge counts
// MoCHy-A+ scales, against brute force on g. budget sizes the memoized
// projector.
func checkOracle(t *testing.T, label string, g *hypergraph.Hypergraph, budget int64) {
	t.Helper()
	want := bruteForce(g)
	ctx := context.Background()
	p := projection.Build(g)
	m := projection.NewMemoized(g, budget, projection.PolicyDegree)
	for _, workers := range []int{1, 2, 3, 8} {
		opts := Options{Workers: workers}
		for _, pr := range []projection.Projector{p, m} {
			if got, _, err := CountExactOpts(ctx, g, pr, opts); err != nil || got != want.total {
				t.Fatalf("%s: CountExactOpts(%T, workers=%d) = %v, %v; brute force %v",
					label, pr, workers, got.String(), err, want.total.String())
			}
		}
		if got, _, err := CountPairs(ctx, g, p, opts); err != nil || got != want.total {
			t.Fatalf("%s: CountPairs(workers=%d) = %v, %v; brute force %v",
				label, workers, got.String(), err, want.total.String())
		}
	}
	// An edge's own node set as the candidate: edges set-equal to it, the
	// edge itself included, form no valid instance, so the candidate counts
	// are the edge's brute-force row.
	for _, pr := range []projection.Projector{p, m} {
		for x := range want.per {
			got := CountForNodeSet(g, pr, g.Edge(x))
			for col, n := range want.per[x] {
				if got[col] != float64(n) {
					t.Fatalf("%s: CountForNodeSet(%T, edge %d) motif %d = %v, brute force %d",
						label, pr, x, col+1, got[col], n)
				}
			}
		}
	}
	// MoCHy-A+'s per-wedge walker: the raw counts it tallies for ∧ij, in
	// either order and folded as the sampling loop folds them, are the
	// instances {i, j, k} by motif. One buffer serves every wedge, so a
	// counter, stamp or tally left dirty by one wedge shows in the next.
	byPair := make(map[[2]int32]Counts)
	for key, id := range want.instances {
		for _, pair := range [][2]int32{{key[0], key[1]}, {key[0], key[2]}, {key[1], key[2]}} {
			c := byPair[pair]
			c[id-1]++
			byPair[pair] = c
		}
	}
	var buf nbrBuffers
	for i := int32(0); int(i) < g.NumEdges(); i++ {
		for _, nb := range p.Neighbors(i) {
			wantW := byPair[[2]int32{min(i, nb.Edge), max(i, nb.Edge)}]
			for _, w := range [][2]int32{{i, nb.Edge}, {nb.Edge, i}} {
				var got Counts
				countContainingWedge(g, p, w[0], w[1], &buf)
				buf.fold(&got)
				if got != wantW {
					t.Fatalf("%s: countContainingWedge(%d, %d) = %v, brute force %v",
						label, w[0], w[1], got.String(), wantW.String())
				}
			}
		}
	}
	for _, workers := range []int{1, 3} {
		per, total, _, err := PerEdgeCounts(ctx, g, p, Options{Workers: workers})
		if err != nil || total != want.total {
			t.Fatalf("%s: PerEdgeCounts(workers=%d) total = %v, %v; brute force %v",
				label, workers, total.String(), err, want.total.String())
		}
		for e := range per {
			for col := range per[e] {
				if per[e][col] != want.per[e][col] {
					t.Fatalf("%s: PerEdgeCounts(workers=%d) edge %d motif %d = %d, brute force %d",
						label, workers, e, col+1, per[e][col], want.per[e][col])
				}
			}
		}
	}
	// fn runs on the kernel's worker goroutine: record, stop, fail here.
	seen := make(map[[3]int32]bool, len(want.instances))
	var bad *Instance
	Enumerate(g, p, func(ins Instance) bool {
		key := [3]int32{ins.A, ins.B, ins.C}
		if id, ok := want.instances[key]; !ok || id != ins.Motif || seen[key] {
			bad = &ins
			return false
		}
		seen[key] = true
		return true
	})
	if bad != nil {
		key := [3]int32{bad.A, bad.B, bad.C}
		t.Fatalf("%s: Enumerate visited %+v (brute force motif %d, seen before %v)", label, *bad, want.instances[key], seen[key])
	}
	if len(seen) != len(want.instances) {
		t.Fatalf("%s: Enumerate visited %d instances, brute force has %d", label, len(seen), len(want.instances))
	}
}

// oracleSeed checks every family at one seed; the seed also picks the
// memoized projector's budget (none, a few neighbourhoods, everything).
func oracleSeed(t *testing.T, seed int64) {
	t.Helper()
	budget := []int64{0, 20, 1 << 16}[uint64(seed)%3]
	for f, fam := range testutil.Families {
		checkOracle(t, fam.Name, oracleGraph(f, seed), budget)
	}
}

// TestOracleWideAnchorFamily keeps the wide family's point: at every seed
// its wide edge is the lowest end of at least two out-neighbours, so the
// oriented counter lists triangles from an anchor of more than one mask
// word.
func TestOracleWideAnchorFamily(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := testutil.WideAnchorHypergraph(rand.New(rand.NewSource(seed)))
		if g.EdgeSize(0) <= 64 {
			t.Fatalf("seed %d: edge 0 has %d nodes, want more than 64", seed, g.EdgeSize(0))
		}
		p := projection.Build(g)
		o := orient(p)
		if out := o.outOf(0); len(out) < 2 {
			t.Fatalf("seed %d: the wide edge has %d out-neighbours (degree %d), want at least 2", seed, len(out), p.Degree(0))
		}
	}
}

func TestCountOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		oracleSeed(t, seed)
	}
}

func FuzzCountOracle(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(oracleSeed)
}
