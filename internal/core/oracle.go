package core

import (
	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/par"
)

// Oracle answers influence queries over precomputed IRS state: the size
// (or estimated size) of the combined influence reachability set of an
// arbitrary seed set (paper Definition 3). Implementations are cheap,
// reusable views over ExactSummaries or ApproxSummaries.
type Oracle interface {
	// NumNodes returns n, the number of nodes in the underlying network.
	NumNodes() int
	// InfluenceSize returns |σω(u)| (exact) or its estimate (approximate).
	InfluenceSize(u graph.NodeID) float64
	// Spread returns |⋃_{u∈S} σω(u)| or its estimate.
	Spread(seeds []graph.NodeID) float64
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

// Spread implements Oracle. Large seed sets union in a tree: contiguous
// seed ranges merge into partial unions concurrently, then the partials
// fold together. HyperLogLog union is a cell-wise maximum — associative
// and commutative — so the regrouping returns exactly the sequential
// union's registers.
func (o *ApproxOracle) Spread(seeds []graph.NodeID) float64 {
	workers := Parallelism()
	if workers > 1 && len(seeds) >= spreadParallelMinSeeds {
		blocks := par.Blocks(len(seeds), workers)
		partials := par.Map(workers, len(blocks), func(b int) *hll.Sketch {
			union := hll.MustNew(o.precision)
			for _, u := range seeds[blocks[b].Lo:blocks[b].Hi] {
				if sk := o.collapsed[u]; sk != nil {
					// Same-precision merge cannot fail.
					_ = union.Merge(sk)
				}
			}
			return union
		})
		union := partials[0]
		for _, p := range partials[1:] {
			_ = union.Merge(p)
		}
		return union.Estimate()
	}
	union := hll.MustNew(o.precision)
	for _, u := range seeds {
		if sk := o.collapsed[u]; sk != nil {
			// Same-precision merge cannot fail.
			_ = union.Merge(sk)
		}
	}
	return union.Estimate()
}
