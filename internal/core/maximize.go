package core

import (
	"container/heap"
	"sort"

	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/par"
)

// This file implements influence maximization on an oracle: the paper's
// Algorithm 4 (greedy marginal gain with a sorted-size early exit) and,
// as an extension, the CELF lazy-greedy strategy of Leskovec et al.,
// which the paper cites as prior art. Both strategies read the table the
// oracle answers queries from — the exact index, or the collapsed
// sketches — through the coverage interface, so selection on a built
// oracle redoes none of its construction.
//
// The maximization problem is NP-hard (paper Lemma 7) but the objective
// |⋃ σω(u)| is monotone and submodular (Lemma 8), so greedy achieves the
// usual (1−1/e) approximation.

// coverage tracks the running union ⋃_{u∈selected} σω(u) and answers
// marginal-gain queries against it.
type coverage interface {
	// gain returns |covered ∪ σω(u)| − |covered| (or its estimate).
	gain(u graph.NodeID) float64
	// add folds σω(u) into the covered set.
	add(u graph.NodeID)
}

// exactCoverage is the coverage over an exact oracle: rows of its CSR
// index, with the covered set as a bitset. gain only reads the bitset,
// so concurrent gain calls between adds are safe.
type exactCoverage struct {
	ix      *exactIndex
	covered bitset
}

func (c *exactCoverage) gain(u graph.NodeID) float64 {
	return float64(c.covered.missing(c.ix.row(u)))
}

func (c *exactCoverage) add(u graph.NodeID) { c.covered.add(c.ix.row(u)) }

// approxCoverage is the coverage over an approx oracle's collapsed
// sketches: the union is a plain HyperLogLog, and a marginal gain is the
// estimate of the union merged with u's sketch, which writes nothing.
type approxCoverage struct {
	collapsed []*hll.Sketch
	union     *hll.Sketch
	current   float64
}

func (c *approxCoverage) gain(u graph.NodeID) float64 {
	if c.collapsed[u] == nil {
		return 0
	}
	g := c.union.EstimateMerged(c.collapsed[u]) - c.current
	if g < 0 {
		g = 0
	}
	return g
}

func (c *approxCoverage) add(u graph.NodeID) {
	if c.collapsed[u] == nil {
		return
	}
	_ = c.union.Merge(c.collapsed[u])
	c.current = c.union.Estimate()
}

// TopK implements Oracle with Algorithm 4 over the index.
func (o *ExactOracle) TopK(k int) []graph.NodeID {
	return greedyTopK(o.NumNodes(), k, o.ix.sizes(), o.coverage())
}

// TopKCELF selects k seeds with CELF lazy greedy: the seeds TopK
// selects, with fewer gain evaluations.
func (o *ExactOracle) TopKCELF(k int) []graph.NodeID {
	return celfTopK(o.NumNodes(), k, o.ix.sizes(), o.coverage())
}

// coverage returns an empty coverage over the index; each selection
// call owns one, so concurrent selections share only read-only state.
func (o *ExactOracle) coverage() *exactCoverage {
	return &exactCoverage{ix: o.ix, covered: newBitset(o.ix.width)}
}

// TopK implements Oracle with Algorithm 4 over the collapsed sketches.
// A first-round gain estimates the empty union merged with u's sketch,
// which is u's own sketch, so it equals size[u] bit for bit and the
// early exit's bound holds in the first round as it does for exact
// summaries (see greedyTopK).
func (o *ApproxOracle) TopK(k int) []graph.NodeID {
	return greedyTopK(o.NumNodes(), k, o.sizes(), o.coverage())
}

// TopKCELF selects k seeds with CELF lazy greedy over the collapsed
// sketches.
func (o *ApproxOracle) TopKCELF(k int) []graph.NodeID {
	return celfTopK(o.NumNodes(), k, o.sizes(), o.coverage())
}

// sizes returns every node's estimated |σω(u)|, the greedy scan's size
// order, estimating across the worker pool.
func (o *ApproxOracle) sizes() []float64 {
	size := make([]float64, o.NumNodes())
	par.ForEach(Parallelism(), len(size), func(u int) {
		size[u] = o.InfluenceSize(graph.NodeID(u))
	})
	return size
}

// coverage returns an empty coverage over the collapsed sketches.
func (o *ApproxOracle) coverage() *approxCoverage {
	return &approxCoverage{collapsed: o.collapsed, union: hll.MustNew(o.precision)}
}

// greedyTopK is Algorithm 4. Candidates are scanned in descending order of
// their individual influence size; the scan stops as soon as the best
// marginal gain found so far is at least the next candidate's full size,
// because a marginal gain never exceeds the full set size. When no
// remaining candidate adds coverage, the seed set is completed with the
// largest-size unselected nodes so callers always receive k seeds.
//
// The early exit is sound while size[u] bounds every marginal gain of u.
// That holds exactly for exact summaries (submodularity). For the
// collapsed sketches it holds in the first round, whose gains are the
// sizes themselves (ApproxOracle.TopK); later rounds can, in principle,
// see an estimated marginal gain above the size — submodularity only
// bounds the true gains — but that residue is second-order noise on an
// estimator whose relative error is already ≈1/√β.
func greedyTopK(n, k int, size []float64, cov coverage) []graph.NodeID {
	mx := m()
	span := obs.NewSpan(sink(), "select/greedy")
	gainEvals := int64(0)
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })

	if k > n {
		k = n
	}
	selected := make([]graph.NodeID, 0, k)
	chosen := make([]bool, n)
	for len(selected) < k {
		best := graph.NodeID(-1)
		bestGain := 0.0
		for _, u := range order {
			if chosen[u] {
				continue
			}
			if bestGain >= size[u] {
				break
			}
			gainEvals++
			mx.greedyGainEvals.Inc()
			if g := cov.gain(u); g > bestGain {
				bestGain = g
				best = u
			}
		}
		if best < 0 {
			// Residual coverage is exhausted; fill deterministically.
			for _, u := range order {
				if !chosen[u] {
					best = u
					break
				}
			}
			if best < 0 {
				break
			}
		}
		chosen[best] = true
		cov.add(best)
		selected = append(selected, best)
		mx.greedySeeds.Inc()
		if span.Due() {
			span.Progressf("%d/%d seeds, %s gain evaluations", len(selected), k, obs.Count(gainEvals))
		}
	}
	span.Endf("%d seeds, %s gain evaluations", len(selected), obs.Count(gainEvals))
	return selected
}

// TopKExact selects k seeds from exact summaries with Algorithm 4, on an
// oracle it builds for the call.
func TopKExact(s *ExactSummaries, k int) []graph.NodeID { return NewExactOracle(s).TopK(k) }

// TopKApproxSeeds selects k seeds from sketch summaries with Algorithm 4,
// on an oracle it builds for the call.
func TopKApproxSeeds(s *ApproxSummaries, k int) []graph.NodeID { return NewApproxOracle(s).TopK(k) }

// celfItem is a heap entry carrying a possibly stale marginal gain.
type celfItem struct {
	node  graph.NodeID
	gain  float64
	size  float64 // individual influence size, the gain's initial value
	round int     // selection round in which gain was computed
}

type celfHeap []celfItem

func (h celfHeap) Len() int { return len(h) }

// Less imposes a total order — gain desc, then individual size desc, then
// node id asc — so the heap top is deterministic under ties. This is the
// same tie rule as greedyTopK's size-sorted first-max scan, which keeps
// the two strategies selecting identical seeds.
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	if h[i].size != h[j].size {
		return h[i].size > h[j].size
	}
	return h[i].node < h[j].node
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfItem)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// celfTopK is the lazy-greedy variant: marginal gains are kept in a
// max-heap and only re-evaluated when a stale entry reaches the top.
// Submodularity guarantees gains only shrink, so a re-evaluated top entry
// that stays on top is the true maximizer. Returns the same seed quality
// as Algorithm 4 with far fewer gain evaluations on large candidate sets.
// The loop is sequential: each re-evaluation depends on the pop before
// it, so the selection and the gain-evaluation count are the same at any
// worker count.
func celfTopK(n, k int, size []float64, cov coverage) []graph.NodeID {
	mx := m()
	span := obs.NewSpan(sink(), "select/celf")
	gainEvals := int64(0)
	h := make(celfHeap, 0, n)
	for u := 0; u < n; u++ {
		if size[u] > 0 {
			h = append(h, celfItem{node: graph.NodeID(u), gain: size[u], size: size[u], round: -1})
		}
	}
	heap.Init(&h)
	if k > n {
		k = n
	}
	selected := make([]graph.NodeID, 0, k)
	for len(selected) < k && h.Len() > 0 {
		it := heap.Pop(&h).(celfItem)
		if it.round == len(selected) {
			cov.add(it.node)
			selected = append(selected, it.node)
			mx.celfSeeds.Inc()
			if span.Due() {
				span.Progressf("%d/%d seeds, %s gain evaluations", len(selected), k, obs.Count(gainEvals))
			}
			continue
		}
		gainEvals++
		mx.celfGainEvals.Inc()
		it.gain = cov.gain(it.node)
		it.round = len(selected)
		heap.Push(&h, it)
	}
	// If every remaining gain was zero the heap may drain before k seeds
	// are found; fill with the largest-size unselected nodes, matching
	// greedyTopK's behaviour.
	if len(selected) < k {
		chosen := make([]bool, n)
		for _, u := range selected {
			chosen[u] = true
		}
		order := make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })
		for _, u := range order {
			if len(selected) >= k {
				break
			}
			if !chosen[u] {
				selected = append(selected, u)
				mx.celfSeeds.Inc()
			}
		}
	}
	span.Endf("%d seeds, %s gain evaluations", len(selected), obs.Count(gainEvals))
	return selected
}

// TopKExactCELF selects k seeds from exact summaries with lazy greedy,
// on an oracle it builds for the call.
func TopKExactCELF(s *ExactSummaries, k int) []graph.NodeID { return NewExactOracle(s).TopKCELF(k) }

// TopKApproxCELF selects k seeds from sketch summaries with lazy greedy,
// on an oracle it builds for the call.
func TopKApproxCELF(s *ApproxSummaries, k int) []graph.NodeID { return NewApproxOracle(s).TopKCELF(k) }
