package core

import (
	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/par"
)

// Oracle answers influence queries over precomputed IRS state: the size
// (or estimated size) of the combined influence reachability set of an
// arbitrary seed set (paper Definition 3), and the greedy seed set that
// maximizes it. Implementations are cheap, reusable views over
// ExactSummaries or ApproxSummaries, safe for concurrent use.
type Oracle interface {
	// NumNodes returns n, the number of nodes in the underlying network.
	NumNodes() int
	// InfluenceSize returns |σω(u)| (exact) or its estimate (approximate).
	InfluenceSize(u graph.NodeID) float64
	// Spread returns |⋃_{u∈S} σω(u)| or its estimate.
	Spread(seeds []graph.NodeID) float64
	// TopK selects k seeds greedily (paper Algorithm 4) on the same
	// table Spread reads.
	TopK(k int) []graph.NodeID
}

// ExactOracle answers exact influence queries (paper §4.1) from a
// compressed sparse row index over the summaries: a Spread query walks
// the seeds' rows and marks their union in an n-bit bitset, its only
// allocation.
type ExactOracle struct{ ix *exactIndex }

// NewExactOracle indexes the summaries of s into an oracle. The rows
// fill across the worker pool configured with SetParallelism. The
// oracle reads nothing of s afterwards, so later changes to s do not
// reach it.
func NewExactOracle(s *ExactSummaries) *ExactOracle {
	return &ExactOracle{ix: newExactIndex(s, Parallelism())}
}

// NumNodes implements Oracle.
func (o *ExactOracle) NumNodes() int { return len(o.ix.offsets) - 1 }

// InfluenceSize implements Oracle.
func (o *ExactOracle) InfluenceSize(u graph.NodeID) float64 { return float64(len(o.ix.row(u))) }

// Spread implements Oracle.
func (o *ExactOracle) Spread(seeds []graph.NodeID) float64 { return float64(o.ix.spread(seeds)) }

// ApproxOracle adapts ApproxSummaries to the Oracle interface. It
// collapses every node sketch once at construction, so each Spread query
// costs O(|S|·β) regardless of the network size — the property Figure 4
// measures.
type ApproxOracle struct {
	precision int
	collapsed []*hll.Sketch // nil where σω(u) is empty
}

// NewApproxOracle finalizes the sketches of s into an oracle. The
// per-node collapses are independent and run across the worker pool
// configured with SetParallelism.
func NewApproxOracle(s *ApproxSummaries) *ApproxOracle {
	o := &ApproxOracle{precision: s.Precision, collapsed: make([]*hll.Sketch, s.NumNodes())}
	par.ForEach(Parallelism(), len(s.Sketches), func(u int) {
		if sk := s.Sketches[u]; sk != nil {
			o.collapsed[u] = sk.Collapse()
		}
	})
	return o
}

// NumNodes implements Oracle.
func (o *ApproxOracle) NumNodes() int { return len(o.collapsed) }

// InfluenceSize implements Oracle.
func (o *ApproxOracle) InfluenceSize(u graph.NodeID) float64 {
	if o.collapsed[u] == nil {
		return 0
	}
	return o.collapsed[u].Estimate()
}

// Spread implements Oracle.
func (o *ApproxOracle) Spread(seeds []graph.NodeID) float64 {
	union := hll.MustNew(o.precision)
	for _, u := range seeds {
		if sk := o.collapsed[u]; sk != nil {
			// Same-precision merge cannot fail.
			_ = union.Merge(sk)
		}
	}
	return union.Estimate()
}
