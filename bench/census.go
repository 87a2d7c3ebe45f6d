package main

import (
	"context"
	"fmt"
	"time"

	"mochy/api"
	"mochy/client"
	"mochy/internal/cp"
	counting "mochy/internal/mochy"
)

// censusMode selects what each census round asks of every graph.
type censusMode int

const (
	modeExact   censusMode = iota // re-upload, then MoCHy-E
	modeSampled                   // re-upload, then MoCHy-A+ at r = 1% of |∧|
	modeProfile                   // characteristic profile, real counts cached
)

// profileRandomizations is the Chung-Lu ensemble size of every profile
// request.
const profileRandomizations = 4

// census is the closed-loop workload family: one client walks a fixed list
// of graphs round after round, waiting for each reply before the next
// request. Request i is graph i mod len(graphs) in round i / len(graphs).
type census struct {
	mode        censusMode
	seed        int64
	graphs      []*graphInput
	traceRounds int
	maxRelErr   float64 // census-sampled: highest mean relative error that passes

	// Diagnostics of the SDK path, gathered on the single client goroutine.
	relErr   []float64
	gaps     []float64
	roundCPs []cp.Profile
	cacheOdd int                  // results whose cached flag contradicts the workload
	graphLat map[string][]float64 // census: per-graph request latency, ms

	// realKeys are the replay cache's keys of each graph's exact counts.
	realKeys []string
}

func newCensus(mode censusMode) *census { return &census{mode: mode} }

func (w *census) prepare(cfg config) error {
	w.seed = cfg.seed
	scale, hubEdges := 0.5, 4096
	w.maxRelErr = maxSampledRelErr
	if cfg.quick {
		scale, hubEdges, w.maxRelErr = 0.05, 256, maxQuickRelErr
	}
	w.graphs = w.graphs[:0]
	for _, name := range sparseDatasets {
		in, err := tableDataset(name, scale, cfg.seed)
		if err != nil {
			return err
		}
		w.graphs = append(w.graphs, in)
	}
	if w.mode != modeProfile {
		hub, err := hubSkewed(hubEdges, cfg.seed)
		if err != nil {
			return err
		}
		w.graphs = append(w.graphs, hub)
	}
	if err := computeReferences(w.graphs); err != nil {
		return err
	}
	w.traceRounds = map[censusMode]int{modeExact: 2, modeSampled: 20, modeProfile: 1}[w.mode]
	if cfg.quick {
		w.traceRounds = 1
	}
	return nil
}

func (w *census) durable() bool { return false }
func (w *census) senders() int  { return 1 }

// setups: a census set-up is a daemon start and eight uploads, a few ms,
// so a run takes the median of many; a profile set-up also counts every
// graph exactly and takes about a second.
func (w *census) setups() int {
	if w.mode == modeProfile {
		return 5
	}
	return 41
}

func (w *census) traceOps() int { return w.traceRounds * len(w.graphs) }

func (w *census) class(int) string {
	return map[censusMode]string{modeExact: "upload_exact", modeSampled: "upload_sample", modeProfile: "profile"}[w.mode]
}

// samples is the MoCHy-A+ budget for in: r = 1% of |∧|, at least 1.
func samples(in *graphInput) int { return max(1, int(in.wedges/100)) }

// opSeed is the fresh sampling or null-model seed of op i.
func (w *census) opSeed(i int) int64 { return mix64(w.seed, int64(w.mode), int64(i)) }

// setup uploads every graph once, so each round's upload replaces it and
// bumps its generation; the profile workload also warms the exact counts
// its profiles reuse.
func (w *census) setup(ctx context.Context, c *client.Client, chk *checker) error {
	for _, in := range w.graphs {
		res, err := c.UploadGraph(ctx, in.name, in.g)
		if err != nil {
			return fmt.Errorf("upload %s: %w", in.name, err)
		}
		if res.Stats.NumEdges != in.g.NumEdges() {
			chk.fail("upload %s: %d hyperedges registered, want %d", in.name, res.Stats.NumEdges, in.g.NumEdges())
		}
		if w.mode == modeProfile {
			cr, err := c.Count(ctx, in.name, api.CountRequest{Algorithm: api.AlgoExact})
			if err != nil {
				return fmt.Errorf("warm exact count of %s: %w", in.name, err)
			}
			chk.check("exact count of "+in.name, checkExact(cr.Counts, &in.ref))
		}
	}
	w.roundCPs = w.roundCPs[:0]
	return nil
}

// sdk runs op i against the daemon and checks its output.
func (w *census) sdk(ctx context.Context, c *client.Client, i int, chk *checker) error {
	in := w.graphs[i%len(w.graphs)]
	if w.mode == modeProfile {
		pr, err := c.Profile(ctx, in.name, api.ProfileRequest{Randomizations: profileRandomizations, Seed: w.opSeed(i)})
		if err != nil {
			return err
		}
		chk.check("profile of "+in.name, checkProfile(pr.Profile))
		if pr.Cached {
			w.cacheOdd++
		}
		var p cp.Profile
		copy(p[:], pr.Profile)
		w.collectCP(p)
		return nil
	}
	res, err := c.UploadGraph(ctx, in.name, in.g)
	if err != nil {
		return err
	}
	if res.Stats.NumEdges != in.g.NumEdges() {
		chk.fail("upload %s: %d hyperedges registered, want %d", in.name, res.Stats.NumEdges, in.g.NumEdges())
	}
	req := api.CountRequest{Algorithm: api.AlgoExact}
	if w.mode == modeSampled {
		req = api.CountRequest{Algorithm: api.AlgoWedge, Samples: samples(in), Seed: w.opSeed(i)}
	}
	cr, err := c.Count(ctx, in.name, req)
	if err != nil {
		return err
	}
	if cr.Cached {
		w.cacheOdd++
	}
	if w.mode == modeExact {
		chk.check("exact count of "+in.name, checkExact(cr.Counts, &in.ref))
		return nil
	}
	chk.check("estimate of "+in.name, checkEstimate(cr.Counts))
	est := toCounts(cr.Counts)
	w.relErr = append(w.relErr, est.RelativeError(&in.ref))
	return nil
}

// collectCP gathers one round's profiles and, once the round is complete,
// records how much more alike same-domain profiles are than the rest.
func (w *census) collectCP(p cp.Profile) {
	w.roundCPs = append(w.roundCPs, p)
	if len(w.roundCPs) < len(w.graphs) {
		return
	}
	w.gaps = append(w.gaps, domainGap(w.graphs, w.roundCPs))
	w.roundCPs = w.roundCPs[:0]
}

// domainGap is the mean within-domain minus mean across-domain CP
// correlation over one set of profiles.
func domainGap(graphs []*graphInput, profiles []cp.Profile) float64 {
	labels := make([]string, len(graphs))
	for i, in := range graphs {
		labels[i] = in.domain
	}
	_, _, gap := cp.DomainGap(cp.SimilarityMatrix(profiles), labels)
	return gap
}

// measure runs whole rounds until the window has elapsed: a round started
// inside the window finishes, so every graph contributes equally often. An
// op is one round (recount, re-estimate or profile the whole collection):
// the graphs differ in cost by up to 60×, so a percentile of per-graph
// latencies would sit on the boundary between two graphs.
func (w *census) measure(ctx context.Context, c *client.Client, window time.Duration, chk *checker) (*measurement, error) {
	m := &measurement{}
	w.graphLat = map[string][]float64{}
	start := time.Now()
	for round := 0; time.Since(start) < window; round++ {
		m.rounds++
		r0 := time.Now()
		var roundErr error
		for gi, in := range w.graphs {
			t0 := time.Now()
			err := w.sdk(ctx, c, round*len(w.graphs)+gi, chk)
			w.graphLat[in.name] = append(w.graphLat[in.name], ms(time.Since(t0)))
			if roundErr == nil {
				roundErr = err
			}
		}
		m.ops = append(m.ops, opSample{class: "round", lat: time.Since(r0), err: roundErr})
	}
	return m, nil
}

// finish checks the accuracy of the run's estimates.
func (w *census) finish(_ context.Context, _ *client.Client, chk *checker) error {
	if w.mode == modeSampled {
		chk.check("estimates", checkAccuracy(w.relErr, w.maxRelErr))
	}
	return nil
}

func (w *census) notes() []string {
	var out []string
	if w.mode == modeSampled {
		out = append(out, fmt.Sprintf("rel_err=%.6f (mean Counts.RelativeError of %d estimates against the reference; at most %.2f passes)", mean(w.relErr), len(w.relErr), w.maxRelErr))
	}
	if w.mode == modeProfile {
		out = append(out, fmt.Sprintf("cp_domain_gap=%.6f (mean over %d complete rounds of within- minus across-domain CP correlation; not gated)", mean(w.gaps), len(w.gaps)))
	}
	for _, in := range w.graphs {
		if v := w.graphLat[in.name]; len(v) > 0 {
			out = append(out, fmt.Sprintf("graph %-16s n=%-4d p50=%.4f ms", in.name, len(v), percentile(v, 50)))
		}
	}
	out = append(out, fmt.Sprintf("cache_state_mismatches=%d (results flagged cached although every request is new)", w.cacheOdd))
	return out
}

// openLocal registers the graphs in the replay's registry; for profiles it
// also caches their exact counts, as the daemon's warm-up did.
func (w *census) openLocal(_ context.Context, l *layers) error {
	w.realKeys = w.realKeys[:0]
	for _, in := range w.graphs {
		e, _ := l.reg.Load(in.name, in.g)
		key := countKey(e, api.AlgoExact, 0, 0)
		if w.mode == modeProfile {
			l.cache.PutCost(key, in.ref, 0, time.Second)
		}
		w.realKeys = append(w.realKeys, key)
	}
	return nil
}

// direct replays op i on the in-process layers, following the daemon's
// path for the same request.
func (w *census) direct(ctx context.Context, l *layers, i int, chk *checker) error {
	gi := i % len(w.graphs)
	in := w.graphs[gi]
	if w.mode == modeProfile {
		return w.directProfile(ctx, l, i, chk)
	}
	b, err := l.encode(in.g)
	if err != nil {
		return err
	}
	g, err := l.decode(b)
	if err != nil {
		return err
	}
	e := l.load(in.name, g)
	algo, r, seed := api.AlgoExact, 0, int64(0)
	if w.mode == modeSampled {
		algo, r, seed = api.AlgoWedge, samples(in), w.opSeed(i)
	}
	key := countKey(e, algo, r, seed)
	if _, hit := l.cacheGet(key); hit {
		w.cacheOdd++
	}
	if err := l.acquire(ctx); err != nil {
		return err
	}
	t0 := time.Now()
	p := l.build(e.Graph)
	var c counting.Counts
	if w.mode == modeExact {
		c, err = l.countExact(ctx, e.Graph, p)
	} else {
		c, err = l.countWedges(ctx, e.Graph, p, r, seed)
	}
	cost := time.Since(t0)
	l.release()
	if err != nil {
		return err
	}
	l.cachePut(key, c, cost)
	if w.mode == modeExact {
		chk.check("replayed exact count of "+in.name, checkExact(c[:], &in.ref))
	} else {
		chk.check("replayed estimate of "+in.name, checkEstimate(c[:]))
		l.relErr = append(l.relErr, c.RelativeError(&in.ref))
	}
	return nil
}

func (w *census) directProfile(ctx context.Context, l *layers, i int, chk *checker) error {
	gi := i % len(w.graphs)
	in := w.graphs[gi]
	e, ok := l.lookup(in.name)
	if !ok {
		return fmt.Errorf("graph %s not registered in the replay", in.name)
	}
	seed := w.opSeed(i)
	pkey := profileKey(e, profileRandomizations, seed)
	if _, hit := l.cacheGet(pkey); hit {
		w.cacheOdd++
	}
	v, ok := l.cacheGet(w.realKeys[gi])
	if !ok {
		return fmt.Errorf("exact counts of %s missing from the replay cache", in.name)
	}
	real := v.(counting.Counts)
	if err := l.acquire(ctx); err != nil {
		return err
	}
	t0 := time.Now()
	prof, err := l.profile(ctx, e.Graph, &real, profileRandomizations, seed)
	cost := time.Since(t0)
	l.release()
	if err != nil {
		return err
	}
	l.cachePut(pkey, prof, cost)
	chk.check("replayed profile of "+in.name, checkProfile(prof[:]))
	l.profiles = append(l.profiles, prof)
	if len(l.profiles) == len(w.graphs) {
		l.domainGaps = append(l.domainGaps, domainGap(w.graphs, l.profiles))
		l.profiles = l.profiles[:0]
	}
	return nil
}
