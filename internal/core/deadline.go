package core

import (
	"ipin/internal/graph"
	"ipin/internal/hll"
)

// Deadline-bounded influence queries. The summaries keep, for every
// reachable node v, the earliest end time λ(u,v) of an admissible channel
// (paper Definition 4) — the algorithm needs it for the reverse-scan
// merges, but it also answers a query the paper's framing invites and
// plain reachability cannot: "how many nodes can the seeds have
// influenced BY time T?". SpreadBy counts exactly the union of
// {v : λ(u,v) ≤ T}; the sketch variant estimates it losslessly because
// dominance pruning preserves prefix maxima.

// SpreadBy returns |⋃_{u∈S} {v ∈ σω(u) : λ(u,v) ≤ deadline}| — the exact
// number of distinct nodes reachable from the seed set through channels
// that END no later than deadline.
func (s *ExactSummaries) SpreadBy(seeds []graph.NodeID, deadline graph.Time) int {
	union := make(map[graph.NodeID]struct{})
	for _, u := range seeds {
		for v, lambda := range s.Phi[u] {
			if lambda <= deadline {
				union[v] = struct{}{}
			}
		}
	}
	return len(union)
}

// InfluenceSizeBy returns |{v ∈ σω(u) : λ(u,v) ≤ deadline}|.
func (s *ExactSummaries) InfluenceSizeBy(u graph.NodeID, deadline graph.Time) int {
	n := 0
	for _, lambda := range s.Phi[u] {
		if lambda <= deadline {
			n++
		}
	}
	return n
}

// SpreadByEstimate estimates the deadline-bounded spread from the
// sketches: per seed, the summary is collapsed to entries with timestamp
// (= λ) at most deadline, straight into one cell-wise union.
func (s *ApproxSummaries) SpreadByEstimate(seeds []graph.NodeID, deadline graph.Time) float64 {
	union := hll.MustNew(s.Precision)
	for _, u := range seeds {
		if sk := s.Sketches[u]; sk != nil {
			sk.CollapseBeforeInto(union, int64(deadline))
		}
	}
	return union.Estimate()
}

// EstimateIRSBy estimates |{v ∈ σω(u) : λ(u,v) ≤ deadline}|.
func (s *ApproxSummaries) EstimateIRSBy(u graph.NodeID, deadline graph.Time) float64 {
	sk := s.Sketches[u]
	if sk == nil {
		return 0
	}
	return sk.EstimateBefore(int64(deadline))
}
