package core

import (
	"sync/atomic"

	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/par"
	"ipin/internal/vhll"
)

// Time-sliced parallel IRS construction.
//
// The reverse-chronological scans of Algorithms 2 and 3 look inherently
// sequential — processing interaction (u,v,t) merges ϕ(v), which depends
// on every later interaction — but the summaries themselves merge
// (paper Lemmas 5–6), which admits a block decomposition:
//
//  1. Partition the sorted log into contiguous time blocks B_1 < … < B_k
//     and run the ordinary reverse scan on each block independently, in
//     parallel. The block-local summaries capture exactly the channels
//     that live entirely inside one block.
//  2. Stitch the boundaries sequentially from the latest block to the
//     earliest: maintain S, the finished summaries over blocks > b, and
//     re-walk block b in reverse propagating ONLY suffix entries (those
//     from S) through block b's edges into delta summaries D. An edge at
//     time t can pick up a suffix entry (x, t_x) only while t_x − t < ω,
//     and every suffix timestamp exceeds the block boundary, so the walk
//     stops as soon as the boundary falls out of the window — the stitch
//     touches only interactions within ω of a block edge. Fold the
//     block-local summaries and D into S and move to the next block.
//
// The result is IDENTICAL to the sequential scan, not merely equivalent:
//
//   - Exact: ϕ(u) maps each reachable node to the minimum admissible
//     channel end time, and min is associative/commutative, so splitting
//     the channel set by originating block and folding preserves every
//     value. A suffix entry the sequential scan would have overwritten
//     (its local counterpart has a strictly earlier end time) passes the
//     window filter only when the local counterpart does too, so the
//     extra propagation folds away under min.
//   - Approx: a versioned-HLL cell is the Pareto staircase (earliest
//     time, highest rank) of the pairs inserted into it, which is a pure
//     function of the pair SET, independent of insertion order. Local
//     pairs carry earlier timestamps than suffix pairs, so neither scan
//     order can suppress a pair the other would keep.
//
// The property tests in parallel_test.go pin byte-identical output
// against the sequential scans on randomized logs.

// Parallelism knob for the package's internal parallel paths (oracle
// collapse and index fill, first-round greedy gains, summary unions,
// folds). Zero (the default) means GOMAXPROCS.
var defaultWorkers atomic.Int32

// SetParallelism sets the worker count used by this package's parallel
// paths; n ≤ 0 restores the GOMAXPROCS default.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Parallelism reports the effective worker count.
func Parallelism() int { return par.Workers(int(defaultWorkers.Load())) }

// minParallelEdges gates the time-sliced scans: below this the
// per-block bookkeeping costs about what it saves. BenchmarkSliceFloor
// sets it: on enron-model logs at ω = 10%, two workers against one
// break even near 1,400 edges and gain 1.1–1.2× at 2,900 and
// 1.4–1.5× at 11,500.
const minParallelEdges = 1 << 11

// sliceable reports whether the log is worth time-slicing into blocks
// for the given window: parallel blocks only pay off while ω is small
// against each block's time span, because the boundary stitch
// re-examines every interaction within ω of a block edge.
func sliceable(l *graph.Log, omega int64, blocks int) bool {
	if l.Len() < minParallelEdges || blocks < 2 {
		return false
	}
	_, _, span := l.Span()
	return 2*omega*int64(blocks) <= span
}

// ComputeExactParallel is ComputeExact over time-sliced blocks scanned
// concurrently by up to workers goroutines (≤ 0 selects GOMAXPROCS).
// Its output is byte-identical to the sequential scan; it falls back to
// ComputeExact outright when the log is small or ω spans most of it.
func ComputeExactParallel(l *graph.Log, omega int64, workers int) *ExactSummaries {
	workers = par.Workers(workers)
	if workers < 2 || !sliceable(l, omega, workers) {
		return ComputeExact(l, omega)
	}
	return computeExactSliced(l, omega, workers)
}

// computeExactSliced is ComputeExactParallel's time-sliced scan, without
// the gate; the log must not be empty.
func computeExactSliced(l *graph.Log, omega int64, workers int) *ExactSummaries {
	span := obs.NewSpan(sink(), "scan/exact-par")
	edges := l.Interactions
	blocks := par.Blocks(len(edges), workers)

	// Phase 1: block-local reverse scans, in parallel.
	locals := par.Map(workers, len(blocks), func(b int) []exactTable {
		tabs := make([]exactTable, l.NumNodes)
		scanExactBlock(edges[blocks[b].Lo:blocks[b].Hi], tabs, omega, nil)
		return tabs
	})
	span.Progressf("%d block scans done (%s edges)", len(blocks), obs.Count(int64(len(edges))))

	// Phase 2: sequential boundary stitch, latest block first. sum holds
	// the finished summaries over the later blocks.
	sum := locals[len(locals)-1]
	for b := len(blocks) - 2; b >= 0; b-- {
		boundary := edges[blocks[b+1].Lo].At
		delta := make([]exactTable, l.NumNodes)
		var buf []exactSlot
		for i := blocks[b].Hi - 1; i >= blocks[b].Lo; i-- {
			e := edges[i]
			if int64(boundary-e.At) >= omega {
				// Every remaining edge is even earlier; no suffix entry
				// can fit its window. The stitch for this block is done.
				break
			}
			if e.Src == e.Dst {
				continue
			}
			dU := &delta[e.Src]
			dU.mergeWindow(&sum[e.Dst], e.Src, e.At, omega, &buf)
			dU.mergeWindow(&delta[e.Dst], e.Src, e.At, omega, &buf)
		}
		// Fold the block-local summaries and the propagated deltas into
		// sum. Each node's fold touches only that node's tables, so the
		// folds fan out across the workers; only the short boundary walk
		// above is inherently sequential.
		local := locals[b]
		par.ForEach(workers, l.NumNodes, func(u int) {
			sum[u].fold(&local[u])
			sum[u].fold(&delta[u])
		})
	}
	s := &ExactSummaries{Omega: omega, Phi: exactMaps(sum, workers)}
	span.Endf("%s edges, %d blocks, %s entries",
		obs.Count(int64(len(edges))), len(blocks), obs.Count(int64(s.EntryCount())))
	return s
}

// ComputeApproxParallel is ComputeApprox over time-sliced blocks scanned
// concurrently by up to workers goroutines (≤ 0 selects GOMAXPROCS).
// The resulting sketches are identical to the sequential scan's; it
// falls back to ComputeApprox when the log is small or ω spans most of
// it.
func ComputeApproxParallel(l *graph.Log, omega int64, precision, workers int) (*ApproxSummaries, error) {
	workers = par.Workers(workers)
	if workers < 2 || !sliceable(l, omega, workers) {
		return ComputeApprox(l, omega, precision)
	}
	if precision < hll.MinPrecision || precision > hll.MaxPrecision {
		return nil, errPrecision(precision)
	}
	return computeApproxSliced(l, omega, precision, workers), nil
}

// computeApproxSliced is ComputeApproxParallel's time-sliced scan,
// without the gate; the log must not be empty and precision must be
// valid.
func computeApproxSliced(l *graph.Log, omega int64, precision, workers int) *ApproxSummaries {
	span := obs.NewSpan(sink(), "scan/approx-par")
	edges := l.Interactions
	blocks := par.Blocks(len(edges), workers)

	// Node hashes are pure functions of the ID; share one table.
	hashes := make([]uint64, l.NumNodes)
	par.ForEach(workers, len(hashes), func(i int) {
		hashes[i] = hll.Hash64(uint64(i))
	})

	// Phase 1: block-local reverse scans, in parallel.
	locals := par.Map(workers, len(blocks), func(b int) []*vhll.Sketch {
		sketches := make([]*vhll.Sketch, l.NumNodes)
		scanApproxBlock(edges[blocks[b].Lo:blocks[b].Hi], sketches, hashes, omega, precision, nil)
		return sketches
	})
	span.Progressf("%d block scans done (%s edges)", len(blocks), obs.Count(int64(len(edges))))

	// Phase 2: sequential boundary stitch, latest block first.
	s := &ApproxSummaries{Omega: omega, Precision: precision, Sketches: locals[len(locals)-1]}
	for b := len(blocks) - 2; b >= 0; b-- {
		boundary := edges[blocks[b+1].Lo].At
		delta := make(map[graph.NodeID]*vhll.Sketch)
		for i := blocks[b].Hi - 1; i >= blocks[b].Lo; i-- {
			e := edges[i]
			if int64(boundary-e.At) >= omega {
				break
			}
			if e.Src == e.Dst {
				continue
			}
			skV, dV := s.Sketches[e.Dst], delta[e.Dst]
			if skV == nil && dV == nil {
				continue
			}
			dU := delta[e.Src]
			if dU == nil {
				dU = vhll.MustNew(precision)
				delta[e.Src] = dU
			}
			// Same-precision merges cannot fail.
			if skV != nil {
				_ = dU.MergeWindow(skV, int64(e.At), omega)
			}
			if dV != nil {
				_ = dU.MergeWindow(dV, int64(e.At), omega)
			}
		}
		// Fold the block-local sketches and the propagated deltas into S.
		// Each node's fold touches only its own slot (delta is read-only
		// here), so the folds fan out across the workers; only the short
		// boundary walk above is inherently sequential.
		local := locals[b]
		par.ForEach(workers, l.NumNodes, func(ui int) {
			u := graph.NodeID(ui)
			sk, d := local[u], delta[u]
			dst := s.Sketches[u]
			if dst == nil {
				if sk == nil {
					if d != nil {
						s.Sketches[u] = d
					}
					return
				}
				s.Sketches[u] = sk
				dst = sk
			} else if sk != nil {
				_ = dst.Merge(sk)
			}
			if d != nil {
				_ = dst.Merge(d)
			}
		})
	}
	span.Endf("%s edges, %d blocks, %s entries",
		obs.Count(int64(len(edges))), len(blocks), obs.Count(int64(s.EntryCount())))
	return s
}
