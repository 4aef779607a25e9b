package core

import (
	"fmt"

	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/vhll"
)

// DefaultPrecision is the sketch precision used throughout the paper's
// evaluation after the accuracy study of Table 3 settled on β = 512 cells.
const DefaultPrecision = 9 // β = 512

// ApproxSummaries holds the output of the approximate one-pass algorithm:
// a versioned HyperLogLog sketch per node in place of the exact summary
// map.
type ApproxSummaries struct {
	// Omega is the maximum channel duration the summaries were built with.
	Omega int64
	// Precision is log2 of the number of cells per sketch.
	Precision int
	// Sketches[u] approximates ϕω(u); nil means σω(u) is empty.
	Sketches []*vhll.Sketch
}

// ComputeApprox runs the paper's Algorithm 3: the same reverse-
// chronological scan as ComputeExact, with ApproxAdd and ApproxMerge over
// versioned HyperLogLog sketches. Processing interaction (u,v,t) inserts
// v's hash at time t into ϕ(u) and then window-merges ϕ(v) into ϕ(u),
// keeping entries with t_x − t < ω.
//
// Expected time is O(m·β·log²ω) and expected space O(n·β·log²ω) (paper
// Lemmas 5 and 6). The log must be sorted ascending with distinct
// timestamps, the paper's standing assumption — run Log.Detie on tied
// input first. Unlike the exact variant, which filters on strictly
// increasing times, the sketch cannot tell a same-timestamp entry apart
// from a later one and would let it chain into a channel.
//
// ComputeApproxParallel produces identical sketches from a time-sliced
// concurrent scan; see parallel.go for the decomposition.
func ComputeApprox(l *graph.Log, omega int64, precision int) (*ApproxSummaries, error) {
	if precision < hll.MinPrecision || precision > hll.MaxPrecision {
		return nil, errPrecision(precision)
	}
	s := &ApproxSummaries{
		Omega:     omega,
		Precision: precision,
		Sketches:  make([]*vhll.Sketch, l.NumNodes),
	}
	// Node hashes are pure functions of the ID; cache them once.
	hashes := make([]uint64, l.NumNodes)
	for i := range hashes {
		hashes[i] = hll.Hash64(uint64(i))
	}
	span := obs.NewSpan(sink(), "scan/approx")
	summaries := scanApproxBlock(l.Interactions, s.Sketches, hashes, omega, precision, span)
	span.Endf("%s edges, %s summaries, %s entries, %s",
		obs.Count(int64(l.Len())), obs.Count(summaries), obs.Count(int64(s.EntryCount())), obs.Bytes(int64(s.MemoryBytes())))
	return s, nil
}

// scanApproxBlock is Algorithm 3's per-edge step over one contiguous
// edge slice, latest edge first, into sketches (one per node), with
// hashes[v] the hash of node v. ComputeApprox runs it over the whole log,
// and ComputeApproxParallel and the incremental builder over each time
// block; span reports progress on the former and is nil elsewhere. It
// returns the summaries created.
func scanApproxBlock(edges []graph.Interaction, sketches []*vhll.Sketch, hashes []uint64, omega int64, precision int, span *obs.Span) (summaries int64) {
	mx := m()
	total := int64(len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		mx.approxEdges.Inc()
		if e.Src == e.Dst {
			continue
		}
		sk := sketches[e.Src]
		if sk == nil {
			sk = vhll.MustNew(precision)
			sketches[e.Src] = sk
			summaries++
			mx.approxSummaries.Inc()
		}
		sk.AddHash(hashes[e.Dst], int64(e.At))
		if skV := sketches[e.Dst]; skV != nil {
			mx.approxMerges.Inc()
			// Same-precision merge cannot fail.
			_ = sk.MergeWindow(skV, int64(e.At), omega)
		}
		if done := total - int64(i); done&progressMask == 0 && span.Due() {
			// Entry and byte counts walk every sketch; they run only at
			// the rate-limited progress checkpoints.
			span.Progressf("%s/%s edges, %s summaries, %s",
				obs.Count(done), obs.Count(total), obs.Count(summaries), obs.Bytes(int64(payloadBytes(sketches))))
		}
	}
	return summaries
}

// errPrecision is the shared out-of-range precision error of the approx
// constructors.
func errPrecision(precision int) error {
	return fmt.Errorf("core: precision %d outside [%d,%d]", precision, hll.MinPrecision, hll.MaxPrecision)
}

// NumNodes returns n.
func (s *ApproxSummaries) NumNodes() int { return len(s.Sketches) }

// EstimateIRS returns the estimated |σω(u)|.
func (s *ApproxSummaries) EstimateIRS(u graph.NodeID) float64 {
	sk := s.Sketches[u]
	if sk == nil {
		return 0
	}
	return sk.Estimate()
}

// Collapse returns u's summary flattened to a plain HyperLogLog, the form
// the oracle unions in O(β). The result is nil when σω(u) is empty.
func (s *ApproxSummaries) Collapse(u graph.NodeID) *hll.Sketch {
	sk := s.Sketches[u]
	if sk == nil {
		return nil
	}
	return sk.Collapse()
}

// EntryCount returns the total number of stored (rank, timestamp) pairs
// across all node sketches.
func (s *ApproxSummaries) EntryCount() int {
	n := 0
	for _, sk := range s.Sketches {
		if sk != nil {
			n += sk.EntryCount()
		}
	}
	return n
}

// MemoryBytes returns the payload size of all sketches (Table 4's
// quantity: EntryBytes per stored pair, independent of how a sketch lays
// entries out in RAM). For actual retained bytes see vhll.MemoryBytes on
// the individual sketches.
func (s *ApproxSummaries) MemoryBytes() int { return payloadBytes(s.Sketches) }

// payloadBytes is the MemoryBytes of a sketch table.
func payloadBytes(sketches []*vhll.Sketch) int {
	n := 0
	for _, sk := range sketches {
		if sk != nil {
			n += sk.PayloadBytes()
		}
	}
	return n
}

// SpreadEstimate estimates |⋃_{u∈S} σω(u)| by unioning the collapsed
// sketches of the seeds (cell-wise maximum) and running the HyperLogLog
// estimator once, exactly as described in paper §4.1. Each seed's sketch
// collapses straight into the union's registers.
func (s *ApproxSummaries) SpreadEstimate(seeds []graph.NodeID) float64 {
	union := hll.MustNew(s.Precision)
	for _, u := range seeds {
		if sk := s.Sketches[u]; sk != nil {
			sk.CollapseInto(union)
		}
	}
	return union.Estimate()
}

// EstimateIRSWindow estimates how many nodes u first becomes able to
// reach during the window [at, at+horizon−1]: the summary timestamps are
// the earliest admissible channel end times λ(u,v), so restricting the
// sketch to that window counts the nodes whose earliest influence lands
// inside it. This is the jumping/sliding-window influence view of the
// time-decaying formulations (PAPERS.md): an ESTIMATE, not an exact
// restriction — dominance pruning may have dropped an in-window entry
// whose dominator (an earlier λ) fell before the window, so tight
// windows can under-count relative to a from-scratch scan of the window.
// For exact window semantics at chunk granularity use
// ChunkView.FoldFrom, which re-folds the admissible suffix.
func (s *ApproxSummaries) EstimateIRSWindow(u graph.NodeID, at, horizon int64) float64 {
	sk := s.Sketches[u]
	if sk == nil {
		return 0
	}
	return sk.EstimateWindow(at, horizon)
}

// SpreadEstimateWindow is EstimateIRSWindow over a seed set: the
// estimated number of distinct nodes first reachable from any seed
// during [at, at+horizon−1], by unioning the window-collapsed sketches.
// The same estimate caveat as EstimateIRSWindow applies.
func (s *ApproxSummaries) SpreadEstimateWindow(seeds []graph.NodeID, at, horizon int64) float64 {
	union := hll.MustNew(s.Precision)
	for _, u := range seeds {
		if sk := s.Sketches[u]; sk != nil {
			sk.CollapseWindowInto(union, at, horizon)
		}
	}
	return union.Estimate()
}
