package core

import (
	"fmt"

	"ipin/internal/graph"
	"ipin/internal/par"
	"ipin/internal/vhll"
)

// Merge-at-query entry points for sharded deployments (internal/cluster).
//
// A versioned sketch is a canonical form of the set of (rank, timestamp)
// pairs inserted into it — insertion order never changes the stored
// staircases — so the union of per-shard sketches for one node is exactly
// the sketch a single scan over the concatenated substreams would have
// built from the same insertions. UnionApproxSummaries exploits that to
// combine summary sets computed over disjoint partitions of one edge
// stream: when every edge with source u went to exactly one partition
// (the cluster router's invariant), node u's merged sketch is
// byte-identical to the sketch of the substream that saw u's edges.

// UnionApproxSummaries merges per-partition sketched summaries into one
// summary set by per-node sketch union (vhll cell-wise dominance merge).
// The parts must agree on Omega and Precision; nil parts are skipped.
// The node range of the result is the widest of the parts. Input
// sketches are never mutated. A node held by one part only — every
// node, under the cluster router's invariant — shares that part's
// sketch, so the result is read-only like the parts.
func UnionApproxSummaries(parts ...*ApproxSummaries) (*ApproxSummaries, error) {
	live := parts[:0:0]
	for _, p := range parts {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("core: union of no summaries")
	}
	omega, precision := live[0].Omega, live[0].Precision
	n := 0
	for _, p := range live {
		if p.Omega != omega {
			return nil, fmt.Errorf("core: union omega mismatch: %d vs %d", p.Omega, omega)
		}
		if p.Precision != precision {
			return nil, fmt.Errorf("core: union precision mismatch: %d vs %d", p.Precision, precision)
		}
		if p.NumNodes() > n {
			n = p.NumNodes()
		}
	}
	out := &ApproxSummaries{Omega: omega, Precision: precision, Sketches: make([]*vhll.Sketch, n)}
	// Per-node unions are independent; run them across the worker pool
	// like the oracle collapse does.
	par.ForEach(Parallelism(), n, func(u int) {
		out.Sketches[u] = UnionSketch(graph.NodeID(u), live...)
	})
	return out, nil
}

// UnionSketch returns the union of node u's sketches across the parts —
// the per-node scatter-gather step a sharded query layer runs for each
// seed. Parts that are nil or do not cover u contribute nothing; the
// result is nil when no part holds a sketch for u, the part's own
// sketch when exactly one does, and a freshly built union otherwise.
// The inputs are never mutated, and the result is read-only.
func UnionSketch(u graph.NodeID, parts ...*ApproxSummaries) *vhll.Sketch {
	var merged *vhll.Sketch
	owned := false
	for _, p := range parts {
		if p == nil || int(u) >= p.NumNodes() || p.Sketches[u] == nil {
			continue
		}
		switch sk := p.Sketches[u]; {
		case merged == nil:
			merged = sk
		case !owned:
			merged, owned = vhll.Union(merged, sk), true
		default:
			_ = merged.Merge(sk) // same-precision merge cannot fail
		}
	}
	return merged
}
