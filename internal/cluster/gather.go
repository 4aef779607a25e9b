package cluster

import (
	"sync"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/serve"
	"ipin/internal/vhll"
)

// Gather is the serving-side half of the cluster: the store each shard's
// checkpoints publish into, and the scatter-gather query math over them.
//
// Per shard it keeps exactly one thing — the latest published summary
// set — plus a generation counter. A query takes one consistent View of
// that vector and merges per-node sketches across it at query time:
// nothing is re-folded at publish, so a shard checkpoint costs the same
// as in a single-node deployment no matter how many shards exist.
//
// Staleness contract: a View reflects, for every shard, the latest
// checkpoint that shard had published when the View was taken. Shards
// checkpoint independently, so the vector is not aligned to one global
// cut of the stream; a shard that is behind contributes older — never
// wrong — state for the nodes it owns. Generations exposes the vector
// and cluster_generation_skew tracks its spread.
type Gather struct {
	mx *metrics

	mu    sync.RWMutex
	parts []*core.ApproxSummaries // latest published checkpoint per shard
	gens  []uint64                // publishes seen per shard
	total uint64                  // sum of gens: the cluster generation

	// Merged-summary memo for whole-table queries (top-k seed selection,
	// stats): rebuilt only when the generation vector moved.
	mergedMu   sync.Mutex
	merged     *core.ApproxSummaries
	mergedGens []uint64
}

func newGather(shards int, mx *metrics) *Gather {
	return &Gather{mx: mx,
		parts: make([]*core.ApproxSummaries, shards),
		gens:  make([]uint64, shards),
	}
}

// publish installs shard i's latest checkpoint. Publishes arrive from
// each shard's compactor goroutine; the summaries are shared with that
// shard's fold cache and are treated as read-only everywhere here.
func (g *Gather) publish(i int, s *core.ApproxSummaries) {
	g.mu.Lock()
	g.parts[i] = s
	g.gens[i]++
	g.total++
	skew := generationSkew(g.gens)
	gen := g.gens[i]
	g.mu.Unlock()
	g.mx.publishes.Inc()
	g.mx.shardGen[i].Set(int64(gen))
	g.mx.genSkew.Set(int64(skew))
}

// Publish installs shard i's latest checkpoint from outside the
// in-process compactor path — the hook a replication replica uses to
// feed its applied state into a gather store while the shard's primary
// is elsewhere. Identical semantics to the internal publish.
func (g *Gather) Publish(i int, s *core.ApproxSummaries) { g.publish(i, s) }

// ResumeGeneration raises shard i's publish counter to at least gen
// without installing a snapshot. A promoted replica calls this with the
// generation it last observed from the failed primary, so the cluster
// generation (and everything cached against it) stays monotonic across
// the failover instead of restarting the shard's counter from zero.
func (g *Gather) ResumeGeneration(i int, gen uint64) {
	g.mu.Lock()
	if gen > g.gens[i] {
		g.total += gen - g.gens[i]
		g.gens[i] = gen
		g.mx.shardGen[i].Set(int64(gen))
		g.mx.genSkew.Set(int64(generationSkew(g.gens)))
	}
	g.mu.Unlock()
}

// View returns one consistent snapshot of the per-shard tables: the
// parts and generation vector as they stood at a single instant. All
// query math runs on a View so a mid-query publish can never mix two
// vectors in one answer.
func (g *Gather) View() View {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return View{
		g:     g,
		parts: append([]*core.ApproxSummaries(nil), g.parts...),
		gens:  append([]uint64(nil), g.gens...),
		total: g.total,
	}
}

// Generation returns the cluster generation: total checkpoint publishes
// across all shards. It grows on every shard publish, so caching keyed
// on it is never stale.
func (g *Gather) Generation() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.total
}

// Generations returns the per-shard publish counters.
func (g *Gather) Generations() []uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]uint64(nil), g.gens...)
}

// Merged returns the union of the view's per-shard summaries as one
// summary set — the whole-table form top-k seed selection needs. The
// result is memoized per generation vector: repeated queries between
// checkpoints pay one build.
func (g *Gather) Merged(v View) (*core.ApproxSummaries, error) {
	g.mergedMu.Lock()
	defer g.mergedMu.Unlock()
	if g.merged != nil && vectorEqual(g.mergedGens, v.gens) {
		return g.merged, nil
	}
	m, err := core.UnionApproxSummaries(v.parts...)
	if err != nil {
		return nil, err
	}
	g.merged, g.mergedGens = m, append([]uint64(nil), v.gens...)
	g.mx.mergeBuilds.Inc()
	return m, nil
}

// View is one consistent scatter-gather snapshot and the serve.View the
// frontend answers from; its methods replicate the single-node serving
// math (internal/serve) over the merged per-node sketches, so answers
// are byte-identical to a single-node run whenever the routing identity
// holds (see the package comment).
type View struct {
	g     *Gather // memoizes the merged table TopK and Stats read
	parts []*core.ApproxSummaries
	gens  []uint64
	total uint64
}

// Ready reports whether any shard has published a checkpoint yet.
func (v View) Ready() bool {
	for _, p := range v.parts {
		if p != nil {
			return true
		}
	}
	return false
}

// Generations returns the per-shard publish counters of this view.
func (v View) Generations() []uint64 { return v.gens }

// Generation returns the cluster generation of this view.
func (v View) Generation() uint64 { return v.total }

// NumNodes returns the widest node range any shard has published — the
// same value a single-node ingester over the union stream would report,
// since node ranges grow from the same observed ids.
func (v View) NumNodes() int {
	n := 0
	for _, p := range v.parts {
		if p != nil && p.NumNodes() > n {
			n = p.NumNodes()
		}
	}
	return n
}

// Omega returns the influence window the summaries were built with.
func (v View) Omega() int64 {
	for _, p := range v.parts {
		if p != nil {
			return p.Omega
		}
	}
	return 0
}

// Precision returns the sketch precision of the published summaries.
func (v View) Precision() int {
	for _, p := range v.parts {
		if p != nil {
			return p.Precision
		}
	}
	return 0
}

// Sketch returns node u's merged sketch — the per-node union across all
// shards; nil when no shard holds state for u. It is read-only: a node
// held by one shard (the router's invariant) gets that shard's sketch.
func (v View) Sketch(u graph.NodeID) *vhll.Sketch {
	return core.UnionSketch(u, v.parts...)
}

// Influence estimates |σω(u)| from u's merged sketch.
func (v View) Influence(u graph.NodeID) float64 {
	v.g.mx.mergeQueries.Inc()
	sk := v.Sketch(u)
	if sk == nil {
		return 0
	}
	return sk.Estimate()
}

// Spread estimates |⋃ σω(u)| over the seeds: per seed the shards'
// sketches are unioned and collapsed straight into one HLL, in seed
// order — the cell-wise maximum the single-node store takes.
func (v View) Spread(seeds []graph.NodeID) float64 {
	v.g.mx.mergeQueries.Inc()
	if !v.Ready() {
		return 0
	}
	union := hll.MustNew(v.Precision())
	for _, u := range seeds {
		if sk := v.Sketch(u); sk != nil {
			sk.CollapseInto(union)
		}
	}
	return union.Estimate()
}

// SpreadBy estimates the deadline-bounded spread (channels ending at or
// before deadline), mirroring ApproxSummaries.SpreadByEstimate.
func (v View) SpreadBy(seeds []graph.NodeID, deadline graph.Time) float64 {
	v.g.mx.mergeQueries.Inc()
	if !v.Ready() {
		return 0
	}
	union := hll.MustNew(v.Precision())
	for _, u := range seeds {
		if sk := v.Sketch(u); sk != nil {
			sk.CollapseBeforeInto(union, int64(deadline))
		}
	}
	return union.Estimate()
}

// SpreadWindow estimates the spread counting only nodes first influenced
// inside [at, at+horizon−1], mirroring
// ApproxSummaries.SpreadEstimateWindow. Shards publish sketched
// summaries only, so it never fails.
func (v View) SpreadWindow(seeds []graph.NodeID, at, horizon int64) (float64, error) {
	v.g.mx.mergeQueries.Inc()
	if !v.Ready() {
		return 0, nil
	}
	union := hll.MustNew(v.Precision())
	for _, u := range seeds {
		if sk := v.Sketch(u); sk != nil {
			sk.CollapseWindowInto(union, at, horizon)
		}
	}
	return union.Estimate(), nil
}

// TopK selects k seeds greedily on the view's merged summaries.
func (v View) TopK(k int) ([]graph.NodeID, error) {
	merged, err := v.g.Merged(v)
	if err != nil {
		return nil, err
	}
	return core.TopKApproxSeeds(merged, k), nil
}

// Stats describes the view's merged summaries, so the numbers describe
// what queries actually see.
func (v View) Stats() (serve.Stats, error) {
	merged, err := v.g.Merged(v)
	if err != nil {
		return serve.Stats{}, err
	}
	return serve.ApproxStats(merged), nil
}

// generationSkew returns max−min over the vector, 0 when empty.
func generationSkew(gens []uint64) uint64 {
	if len(gens) == 0 {
		return 0
	}
	lo, hi := gens[0], gens[0]
	for _, g := range gens[1:] {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	return hi - lo
}

// vectorEqual reports whether two generation vectors match.
func vectorEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
