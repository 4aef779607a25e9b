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
// sketches: the union is a plain HyperLogLog, marginal gain is estimated
// by a clone-merge-estimate.
type approxCoverage struct {
	collapsed []*hll.Sketch
	union     *hll.Sketch
	current   float64
}

func (c *approxCoverage) gain(u graph.NodeID) float64 {
	if c.collapsed[u] == nil {
		return 0
	}
	merged := c.union.Clone()
	// Same-precision merge cannot fail.
	_ = merged.Merge(c.collapsed[u])
	g := merged.Estimate() - c.current
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
	return greedyTopK(o.NumNodes(), k, o.ix.sizes(), o.coverage(), false)
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
// Their estimates are noisy, so greedy lifts the size bounds to the
// observed first-round gains (see greedyTopK).
func (o *ApproxOracle) TopK(k int) []graph.NodeID {
	return greedyTopK(o.NumNodes(), k, o.sizes(), o.coverage(), true)
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
// The early exit is sound only while size[u] upper-bounds every marginal
// gain of u. That holds exactly for exact summaries (submodularity), but
// an estimated coverage can report a first-round gain above its own size
// estimate and the exit would then skip the true best candidate. Callers
// with such a coverage pass noisy=true: every candidate's first-round
// gain is evaluated once (in parallel), size[] is lifted to the observed
// gains and re-sorted, making the bound consistent with the coverage's
// own estimator. Later rounds can still, in principle, see an estimated
// marginal gain above the lifted size — submodularity only bounds the
// true gains — but that residue is second-order noise on an estimator
// whose relative error is already ≈1/√β; the selection tolerance is
// pinned by TestGreedyNoisyCoverageClampsEarlyExit.
//
// The pre-pass is also where the parallelism lives: the first round is
// the only one that evaluates a gain per candidate (later rounds are
// pruned hard by the early exit), its evaluations are independent reads
// against an empty union, and each lands in its own clamped[] slot, so
// the result is bit-identical at every worker count.
func greedyTopK(n, k int, size []float64, cov coverage, noisy bool) []graph.NodeID {
	mx := m()
	span := obs.NewSpan(sink(), "select/greedy")
	gainEvals := int64(0)
	workers := Parallelism()
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })

	if noisy && n > 0 {
		clamped := make([]float64, n)
		copy(clamped, size)
		par.ForEach(workers, n, func(u int) {
			if g := cov.gain(graph.NodeID(u)); g > clamped[u] {
				clamped[u] = g
			}
		})
		gainEvals += int64(n)
		mx.greedyGainEvals.Add(int64(n))
		size = clamped
		sort.SliceStable(order, func(i, j int) bool { return size[order[i]] > size[order[j]] })
	}

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
