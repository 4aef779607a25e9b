package core

import (
	"fmt"
	"sync/atomic"

	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/par"
	"ipin/internal/vhll"
)

// Incremental IRS construction over an interaction stream.
//
// The one-pass algorithms scan the log in REVERSE chronological order, so
// a live stream — which grows at the late end — cannot extend a finished
// scan directly: every new interaction would have to be processed before
// everything already seen. What does survive appends is the block
// decomposition of parallel.go: the log is kept partitioned into sealed,
// contiguous time chunks, each chunk carries its block-local reverse-scan
// sketches (computed once, when the chunk is sealed), and producing full
// summaries is a fold over the chunks — the same boundary stitch the
// parallel scan runs, against cached block-local state.
//
// Appending a chunk therefore costs one reverse scan of the NEW
// interactions only; a fold costs the boundary walks (bounded by ω around
// each chunk edge) plus per-node sketch merges, parallelized across the
// library worker pool. The fold is identical — not merely equivalent — to
// ComputeApprox over the concatenated chunks, by the same argument as the
// parallel scan: a versioned-HLL cell is a pure function of the inserted
// (rank, timestamp) pair set, independent of insertion order. The
// property tests in incremental_test.go pin byte-identical IRX1 output
// against the sequential scan on randomized logs and partitions.
//
// IncrementalApprox itself is not goroutine-safe: one owner appends.
// View() snapshots the sealed-chunk state into a ChunkView whose Fold may
// run on any goroutine, concurrently with further appends — sealed chunks
// are immutable and the fold only clones out of them. This split is what
// lets internal/stream keep ingesting while a background compactor folds
// a checkpoint.
//
// Folds are amortized: every Fold caches its per-node result together
// with the number of chunks it covered, and the next Fold over a view
// with more chunks reuses the cached summaries as the folded prefix. Only
// the new chunks are scanned, and their contribution propagates backward
// through the old chunks as a windowed delta — MergeWindow drops entries
// outside ω, so the backward walk terminates as soon as each chunk
// boundary falls out of the window. The cached and delta paths produce
// output byte-identical to a from-scratch fold (and therefore to
// ComputeApprox): a vHLL cell is a pure, order-independent function of
// its inserted (rank, timestamp) pair set, and the delta decomposition
// feeds every cell the same pair set along the same ω-bounded paths.
type IncrementalApprox struct {
	omega     int64
	precision int
	numNodes  int
	edgeCount int // total interactions ever sealed, including retired ones
	lastAt    graph.Time
	anchored  bool // a chunk has been sealed; lastAt bounds the next one
	hashes    []uint64
	chunks    []approxChunk // the retained chunks; chunks[0] has index firstChunk
	// firstChunk is the absolute index of chunks[0]: Retire advances it as
	// whole chunks age past the retention horizon. Chunk indices are
	// absolute everywhere in the API, so sidecar file names, fold-cache
	// tags, and checkpoint metadata stay stable across retirement.
	firstChunk   int
	retiredEdges int // interactions inside retired chunks
	cache        *cacheBox
}

// foldCache is the result of a completed fold: the per-node summaries
// covering absolute chunks [base, chunks). base is the firstChunk of the
// view that folded; a view whose retained range starts elsewhere cannot
// reuse the cache (sketches cannot subtract a retired prefix back out).
// The sketch slice is shared — with the ApproxSummaries handed to the
// caller and potentially with later folds' outputs — and is immutable by
// convention: folds clone before merging into any cached sketch.
type foldCache struct {
	base     int
	chunks   int
	sketches []*vhll.Sketch
}

// cacheBox shares the latest fold result between the appending owner and
// any number of concurrently folding views. Stores race benignly: a stale
// winner only costs the next fold some speed, never correctness, because
// every cache entry is a valid fold of a chunk prefix.
type cacheBox struct {
	p atomic.Pointer[foldCache]
}

// approxChunk is one sealed, immutable time slice of the stream: its
// interactions in ascending time order plus the block-local sketches of a
// reverse scan restricted to the slice. locals is indexed by NodeID and
// sized to the node count at seal time; nodes introduced by later chunks
// simply read as nil here.
type approxChunk struct {
	edges  []graph.Interaction
	locals []*vhll.Sketch
	owned  bool // a transient tail's locals, which its one fold may adopt
}

func (c *approxChunk) local(u graph.NodeID) *vhll.Sketch {
	if int(u) >= len(c.locals) {
		return nil
	}
	return c.locals[int(u)]
}

// NewIncrementalApprox returns an empty incremental builder for window
// omega and the given sketch precision, initially covering numNodes nodes
// (AppendChunk grows the node range as the stream introduces new IDs).
func NewIncrementalApprox(omega int64, precision, numNodes int) (*IncrementalApprox, error) {
	if precision < hll.MinPrecision || precision > hll.MaxPrecision {
		return nil, errPrecision(precision)
	}
	if omega < 1 {
		return nil, fmt.Errorf("core: omega must be >= 1, got %d", omega)
	}
	if numNodes < 0 {
		return nil, fmt.Errorf("core: negative node count %d", numNodes)
	}
	return &IncrementalApprox{omega: omega, precision: precision, numNodes: numNodes, cache: &cacheBox{}}, nil
}

// Omega returns the window the summaries are built with.
func (inc *IncrementalApprox) Omega() int64 { return inc.omega }

// Precision returns the sketch precision.
func (inc *IncrementalApprox) Precision() int { return inc.precision }

// NumNodes returns the current node range [0, n).
func (inc *IncrementalApprox) NumNodes() int { return inc.numNodes }

// EdgeCount returns the total number of interactions ever sealed,
// including those inside retired chunks — it is the stream's emit index
// and never decreases.
func (inc *IncrementalApprox) EdgeCount() int { return inc.edgeCount }

// RetainedEdges returns the number of interactions inside the retained
// chunks, the set a Fold actually covers.
func (inc *IncrementalApprox) RetainedEdges() int { return inc.edgeCount - inc.retiredEdges }

// RetiredEdges returns the number of interactions Retire has shed.
func (inc *IncrementalApprox) RetiredEdges() int { return inc.retiredEdges }

// LastAt returns the timestamp of the latest sealed interaction (zero
// before the first chunk; check EdgeCount to disambiguate).
func (inc *IncrementalApprox) LastAt() graph.Time { return inc.lastAt }

// NumChunks returns the total number of chunks ever sealed (retired ones
// included): absolute chunk indices run [0, NumChunks()), and the
// retained range is [FirstChunk(), NumChunks()).
func (inc *IncrementalApprox) NumChunks() int { return inc.firstChunk + len(inc.chunks) }

// FirstChunk returns the absolute index of the oldest retained chunk.
func (inc *IncrementalApprox) FirstChunk() int { return inc.firstChunk }

// RetainedInteractions calls fn once per retained chunk, oldest first,
// with that chunk's interactions in stream order. The slices alias the
// builder's internal state and must not be mutated or held past the
// call; callers that need edges for longer must copy.
func (inc *IncrementalApprox) RetainedInteractions(fn func([]graph.Interaction)) {
	for i := range inc.chunks {
		fn(inc.chunks[i].edges)
	}
}

// Retire drops every retained chunk whose entire span lies before
// horizon — whose last interaction satisfies At < horizon. Chunks are
// time-ordered, so the retired set is always a prefix, and retirement is
// exhaustive and deterministic: the retained range afterwards is a pure
// function of the sealed chunks and the horizon, which is what lets a
// recovered builder reproduce byte-identical folds (recovery re-retires
// under the same rule; see internal/stream). Retirement is chunk-
// granular: a chunk straddling the horizon is kept whole, so a fold
// after Retire still covers every interaction at or after horizon.
//
// The fold cache is left alone: cache entries are tagged with the base
// they folded from, and a base mismatch makes the next Fold start from
// scratch over the retained chunks (bounded by the horizon, which is the
// point) and drop the stale entry. Returns the number of chunks and
// interactions retired.
func (inc *IncrementalApprox) Retire(horizon int64) (chunks, edges int) {
	k := 0
	for k < len(inc.chunks) {
		es := inc.chunks[k].edges
		if int64(es[len(es)-1].At) >= horizon {
			break
		}
		edges += len(es)
		k++
	}
	if k == 0 {
		return 0, 0
	}
	// Reallocate instead of reslicing: a concurrently folding ChunkView
	// may still reference the old backing array, so the retired entries
	// can neither be zeroed in place nor kept pinning the array head.
	inc.chunks = append([]approxChunk(nil), inc.chunks[k:]...)
	inc.firstChunk += k
	inc.retiredEdges += edges
	return k, edges
}

// ResumeAt primes an empty builder to continue a stream whose chunk
// prefix [0, firstChunk) was retired before a restart: absolute chunk
// indices resume at firstChunk and EdgeCount at retiredEdges, so emit
// clocks and sidecar file names line up with the pre-restart run. The
// first chunk sealed afterwards has no lower time bound (the retired
// prefix that would have bounded it is gone); ordering within and
// between the resumed chunks is validated as usual.
func (inc *IncrementalApprox) ResumeAt(firstChunk, retiredEdges int) error {
	if inc.edgeCount != 0 || len(inc.chunks) != 0 {
		return fmt.Errorf("core: ResumeAt on a non-empty builder (%d chunks, %d edges)", len(inc.chunks), inc.edgeCount)
	}
	if firstChunk < 0 || retiredEdges < 0 {
		return fmt.Errorf("core: ResumeAt(%d, %d) negative", firstChunk, retiredEdges)
	}
	inc.firstChunk = firstChunk
	inc.retiredEdges = retiredEdges
	inc.edgeCount = retiredEdges
	return nil
}

// AppendChunk seals edges as the next time chunk and runs its block-local
// reverse scan. The slice is retained; callers must not modify it
// afterwards. Edges must be strictly ascending in time, strictly after
// every previously sealed interaction, and reference nodes < numNodes;
// numNodes may exceed the current range to introduce new nodes.
func (inc *IncrementalApprox) AppendChunk(edges []graph.Interaction, numNodes int) error {
	if err := inc.validateChunk(edges, numNodes); err != nil {
		return err
	}
	span := obs.NewSpan(sink(), "scan/chunk")
	locals := make([]*vhll.Sketch, numNodes)
	scanApproxBlock(edges, locals, inc.hashes, inc.omega, inc.precision, nil)
	inc.seal(edges, locals)
	span.Endf("%s edges sealed (chunk %d, %s total)",
		obs.Count(int64(len(edges))), len(inc.chunks), obs.Count(int64(inc.edgeCount)))
	return nil
}

// AppendSealedChunk seals edges together with precomputed block-local
// sketches — a chunk recovered from a durable sidecar rather than
// rescanned. locals must be what AppendChunk would have computed: indexed
// by NodeID, len(locals) == numNodes, built with the same omega and
// precision (precision is checked; omega cannot be verified here, so
// callers must gate on their own recorded value). Both slices are
// retained. The same ordering/range validation as AppendChunk applies.
func (inc *IncrementalApprox) AppendSealedChunk(edges []graph.Interaction, locals []*vhll.Sketch, numNodes int) error {
	if err := inc.validateChunk(edges, numNodes); err != nil {
		return err
	}
	if len(locals) != numNodes {
		return fmt.Errorf("core: sealed chunk has %d local sketches for %d nodes", len(locals), numNodes)
	}
	for u, sk := range locals {
		if sk != nil && sk.Precision() != inc.precision {
			return fmt.Errorf("core: sealed chunk local %d has precision %d, want %d", u, sk.Precision(), inc.precision)
		}
	}
	inc.seal(edges, locals)
	return nil
}

// validateChunk checks chunk ordering and node range, then grows the node
// range and hash cache. It mutates inc only on success.
func (inc *IncrementalApprox) validateChunk(edges []graph.Interaction, numNodes int) error {
	if len(edges) == 0 {
		return fmt.Errorf("core: empty chunk")
	}
	if numNodes < inc.numNodes {
		return fmt.Errorf("core: node range cannot shrink (%d -> %d)", inc.numNodes, numNodes)
	}
	prev := inc.lastAt
	first := !inc.anchored
	for i, e := range edges {
		if int(e.Src) < 0 || int(e.Src) >= numNodes || int(e.Dst) < 0 || int(e.Dst) >= numNodes {
			return fmt.Errorf("core: chunk edge %d (%d,%d,%d) out of range for %d nodes", i, e.Src, e.Dst, e.At, numNodes)
		}
		if !first && e.At <= prev {
			return fmt.Errorf("core: chunk edge %d at time %d not after %d", i, e.At, prev)
		}
		prev, first = e.At, false
	}
	inc.numNodes = numNodes
	for len(inc.hashes) < numNodes {
		inc.hashes = append(inc.hashes, hll.Hash64(uint64(len(inc.hashes))))
	}
	return nil
}

// seal appends a validated chunk.
func (inc *IncrementalApprox) seal(edges []graph.Interaction, locals []*vhll.Sketch) {
	inc.chunks = append(inc.chunks, approxChunk{edges: edges, locals: locals})
	inc.edgeCount += len(edges)
	inc.lastAt = edges[len(edges)-1].At
	inc.anchored = true
}

// SeedFoldCache primes the fold cache with summaries recovered from a
// checkpoint that covers exactly the retained chunks below absolute
// index `chunks` — the recovery analogue of the cache a completed Fold
// leaves behind, so the first post-recovery fold is already incremental.
// The summaries must have been produced by Fold (or decode to the same
// bytes) over chunks [FirstChunk(), chunks) under the same omega and
// precision; the sketch slice is adopted as shared immutable state and
// must not be mutated afterwards. Seeding with anything else silently
// corrupts every later fold, so callers gate on their own durable
// metadata; the structural subset checked here (window, precision, chunk
// and node ranges) rejects the detectable mismatches.
func (inc *IncrementalApprox) SeedFoldCache(s *ApproxSummaries, chunks int) error {
	if s == nil {
		return fmt.Errorf("core: nil summaries")
	}
	if s.Omega != inc.omega {
		return fmt.Errorf("core: seed omega %d, builder has %d", s.Omega, inc.omega)
	}
	if s.Precision != inc.precision {
		return fmt.Errorf("core: seed precision %d, builder has %d", s.Precision, inc.precision)
	}
	if chunks <= inc.firstChunk || chunks > inc.NumChunks() {
		return fmt.Errorf("core: seed covers chunks below %d, builder retains [%d,%d)", chunks, inc.firstChunk, inc.NumChunks())
	}
	if len(s.Sketches) > inc.numNodes {
		return fmt.Errorf("core: seed spans %d nodes, builder has %d", len(s.Sketches), inc.numNodes)
	}
	inc.cache.p.Store(&foldCache{base: inc.firstChunk, chunks: chunks, sketches: s.Sketches})
	return nil
}

// View snapshots the sealed state. The snapshot is immutable: its Fold
// may run on another goroutine while the owner keeps appending chunks.
func (inc *IncrementalApprox) View() ChunkView {
	return ChunkView{
		omega:        inc.omega,
		precision:    inc.precision,
		numNodes:     inc.numNodes,
		edgeCount:    inc.edgeCount,
		lastAt:       inc.lastAt,
		firstChunk:   inc.firstChunk,
		retiredEdges: inc.retiredEdges,
		chunks:       inc.chunks[:len(inc.chunks):len(inc.chunks)],
		hashes:       inc.hashes[:len(inc.hashes):len(inc.hashes)],
		cache:        inc.cache,
	}
}

// ChunkView is an immutable snapshot of sealed chunks, the unit a
// background compactor folds into a checkpoint. Views created from the
// same builder share its fold cache, so folding a newer view reuses the
// result of the previous fold.
type ChunkView struct {
	omega        int64
	precision    int
	numNodes     int
	edgeCount    int
	lastAt       graph.Time
	firstChunk   int
	retiredEdges int
	chunks       []approxChunk
	hashes       []uint64 // node hashes, possibly shorter than numNodes
	cache        *cacheBox
}

// NumNodes returns the node range of the snapshot.
func (v ChunkView) NumNodes() int { return v.numNodes }

// EdgeCount returns the total number of interactions ever covered by the
// snapshot's builder, retired ones included — the emit index.
func (v ChunkView) EdgeCount() int { return v.edgeCount }

// RetainedEdges returns the number of interactions inside the retained
// chunks, the set Fold covers.
func (v ChunkView) RetainedEdges() int { return v.edgeCount - v.retiredEdges }

// RetiredEdges returns the number of interactions inside retired chunks.
func (v ChunkView) RetiredEdges() int { return v.retiredEdges }

// LastAt returns the latest covered timestamp.
func (v ChunkView) LastAt() graph.Time { return v.lastAt }

// NumChunks returns the total number of chunks ever sealed; the retained
// range is [FirstChunk(), NumChunks()).
func (v ChunkView) NumChunks() int { return v.firstChunk + len(v.chunks) }

// FirstChunk returns the absolute index of the oldest retained chunk.
func (v ChunkView) FirstChunk() int { return v.firstChunk }

// EachEdge calls fn for every retained interaction in ascending time
// order, the suffix a fold's output summarizes.
func (v ChunkView) EachEdge(fn func(graph.Interaction)) {
	for _, c := range v.chunks {
		for _, e := range c.edges {
			fn(e)
		}
	}
}

// MemoryBytes returns the bytes actually retained by the chunks' cached
// block-local sketches (arena capacity plus indexes, vhll.MemoryBytes) —
// the resident sketch state the retention horizon bounds (fold outputs
// and caches are shared snapshots on top of it).
func (v ChunkView) MemoryBytes() int {
	n := 0
	for i := range v.chunks {
		for _, sk := range v.chunks[i].locals {
			if sk != nil {
				n += sk.MemoryBytes()
			}
		}
	}
	return n
}

// Chunk exposes sealed chunk i (an ABSOLUTE index in
// [FirstChunk(), NumChunks())): its interactions in ascending time order
// and its block-local sketches (indexed by NodeID, sized to the node
// range at seal time). Both slices are the live cached state — callers
// must treat them as read-only. This is what lets internal/stream
// persist sealed chunks as durable sidecars without recomputing them.
func (v ChunkView) Chunk(i int) (edges []graph.Interaction, locals []*vhll.Sketch) {
	c := &v.chunks[i-v.firstChunk]
	return c.edges, c.locals
}

// Fold produces full summaries over every retained chunk —
// byte-identical to ComputeApprox over the concatenated retained
// interactions (the reverse scan's prefix is the log's suffix, so a
// fold over a chunk suffix is exactly the offline scan of those edges).
// It never mutates chunk state: block-local sketches are cloned on
// adoption (that is the one divergence from the parallel scan's stitch,
// which owns its locals), so a view can be folded repeatedly and
// concurrently with appends. The per-node merge fan-out runs on the
// library worker pool.
//
// When the view's cache holds a previous fold covering a prefix of its
// chunks, only the chunks past that prefix are folded from scratch; the
// prefix contributes through the cached summaries plus an ω-bounded
// backward delta walk (see foldDelta). The returned sketches may be
// shared with earlier Fold results and with the internal cache, so
// callers must treat ApproxSummaries.Sketches as read-only — which the
// serving layer already does.
func (v ChunkView) Fold() *ApproxSummaries { return v.fold(true) }

// fold is Fold, recording its result in the cache only when store is
// set.
func (v ChunkView) fold(store bool) *ApproxSummaries {
	workers := Parallelism()
	s := &ApproxSummaries{
		Omega:     v.omega,
		Precision: v.precision,
	}
	if len(v.chunks) == 0 {
		s.Sketches = make([]*vhll.Sketch, v.numNodes)
		return s
	}
	span := obs.NewSpan(sink(), "scan/fold")
	fc := v.cachedPrefix()
	var out []*vhll.Sketch
	reused := 0
	switch {
	case fc != nil && fc.chunks == v.NumChunks():
		// The cache already covers the whole view; reshare it (padding
		// the node range if the view grew it without sealing chunks).
		out = fc.sketches
		if len(out) != v.numNodes {
			padded := make([]*vhll.Sketch, v.numNodes)
			copy(padded, out)
			out = padded
		}
		reused = fc.chunks - fc.base
	case fc != nil:
		out = v.foldDelta(fc, workers)
		reused = fc.chunks - fc.base
	default:
		out = v.foldSuffix(0, workers)
	}
	s.Sketches = out
	if store && v.cache != nil {
		v.cache.p.Store(&foldCache{base: v.firstChunk, chunks: v.NumChunks(), sketches: out})
	}
	span.Endf("%s edges, %d chunks (%d cached), %s entries",
		obs.Count(int64(v.RetainedEdges())), len(v.chunks), reused, obs.Count(int64(s.EntryCount())))
	return s
}

// FoldFrom folds the retained chunks at or past absolute index from into
// fresh summaries, bypassing the fold cache — byte-identical to
// ComputeApprox over exactly those chunks' interactions, because the
// reverse scan's prefix is the log's suffix. This is the chunk-granular
// window-query entry point: anchor a horizon at a chunk boundary and the
// result is the offline scan of the admissible suffix, not an estimate.
func (v ChunkView) FoldFrom(from int) (*ApproxSummaries, error) {
	if from < v.firstChunk || from >= v.NumChunks() {
		return nil, fmt.Errorf("core: FoldFrom(%d) outside retained chunks [%d,%d)", from, v.firstChunk, v.NumChunks())
	}
	s := &ApproxSummaries{
		Omega:     v.omega,
		Precision: v.precision,
		Sketches:  v.foldSuffix(from-v.firstChunk, Parallelism()),
	}
	return s, nil
}

// cachedPrefix returns the shared fold cache if it was folded from this
// view's retained base and covers a non-empty prefix of its chunks, nil
// otherwise. Chunks are append-only and immutable, so a same-base cache
// recorded through absolute chunk k is always a fold of this view's
// chunks below k; a cache from a different base is useless — sketches
// cannot subtract the chunks Retire removed. A cache from an older base
// than the view's can serve no later view either (retirement only moves
// the base forward), so it is dropped here rather than kept alive beside
// the cold fold that replaces it.
func (v ChunkView) cachedPrefix() *foldCache {
	if v.cache == nil {
		return nil
	}
	fc := v.cache.p.Load()
	if fc != nil && fc.base < v.firstChunk {
		v.cache.p.CompareAndSwap(fc, nil)
		return nil
	}
	if fc == nil || fc.base != v.firstChunk || fc.chunks <= fc.base ||
		fc.chunks > v.NumChunks() || len(fc.sketches) > v.numNodes {
		return nil
	}
	return fc
}

// foldSuffix folds chunks[from:] into fresh per-node sketches over the
// view's full node range — for from == 0, the complete fold. Every
// non-nil sketch in the result is owned by the caller (cloned or newly
// built), never shared with chunk state.
func (v ChunkView) foldSuffix(from, workers int) []*vhll.Sketch {
	out := make([]*vhll.Sketch, v.numNodes)
	// Adopt the latest chunk by clone: the stitch mutates suffix state in
	// place, and the cached locals must survive for the next fold. A
	// transient tail's locals are this fold's own.
	last := &v.chunks[len(v.chunks)-1]
	par.ForEach(workers, v.numNodes, func(ui int) {
		sk := last.local(graph.NodeID(ui))
		if sk != nil && !last.owned {
			sk = sk.Clone()
		}
		out[ui] = sk
	})
	for b := len(v.chunks) - 2; b >= from; b-- {
		c := &v.chunks[b]
		boundary := v.chunks[b+1].edges[0].At
		// Boundary walk: propagate suffix entries back through this
		// chunk's edges, exactly as the parallel scan's stitch does. The
		// walk stops once the chunk boundary falls out of the window.
		delta := make(map[graph.NodeID]*vhll.Sketch)
		for i := len(c.edges) - 1; i >= 0; i-- {
			e := c.edges[i]
			if int64(boundary-e.At) >= v.omega {
				break
			}
			if e.Src == e.Dst {
				continue
			}
			skV, dV := out[e.Dst], delta[e.Dst]
			if skV == nil && dV == nil {
				continue
			}
			dU := delta[e.Src]
			if dU == nil {
				dU = vhll.MustNew(v.precision)
				delta[e.Src] = dU
			}
			// Same-precision merges cannot fail.
			if skV != nil {
				_ = dU.MergeWindow(skV, int64(e.At), v.omega)
			}
			if dV != nil {
				_ = dU.MergeWindow(dV, int64(e.At), v.omega)
			}
		}
		// Fold the chunk-local sketches and the propagated deltas into the
		// suffix state. Deltas are fresh, so they may be adopted outright;
		// locals are cached, so they fold in through the clone-safe merge.
		par.ForEach(workers, v.numNodes, func(ui int) {
			u := graph.NodeID(ui)
			dst := vhll.MergeInto(out[u], c.local(u))
			if d := delta[u]; d != nil {
				if dst == nil {
					dst = d
				} else {
					_ = dst.Merge(d)
				}
			}
			out[u] = dst
		})
	}
	return out
}

// foldDelta folds a view whose first fc.chunks chunks are covered by the
// cached summaries. The new chunks fold from scratch (foldSuffix), their
// contribution walks backward through the old chunks as a windowed
// delta, and the result is cached-prefix ∪ delta per node.
//
// Correctness: a sketch is the canonical form of its inserted pair set,
// so the full fold's result at node u is (pairs reaching u through the
// old chunks' stitch) ∪ (pairs originating in the new chunks reaching u
// through the same ω-bounded edge paths). The first set is exactly the
// cached summaries — the cached fold ran the identical walk over the
// identical old chunks. The second set is what this delta walk computes:
// it replays the old chunks' boundary walks with the suffix state
// restricted to new-chunk contributions. Window filtering applies per
// entry, so filtering the union equals the union of filtered parts, and
// both paths feed every cell the same pair set. Non-nil structure is
// preserved for byte identity: a delta sketch is created (possibly
// empty) exactly when the full walk would have created one from a
// new-chunk source, and old-source creations are already in the cache.
func (v ChunkView) foldDelta(fc *foldCache, workers int) []*vhll.Sketch {
	k := fc.chunks - v.firstChunk // relative index of the first uncached chunk
	d := v.foldSuffix(k, workers)
	// Every entry in d carries a timestamp from the new chunks, i.e.
	// ≥ newStart, and merges preserve original timestamps. MergeWindow
	// keeps entries with At − t < ω, so once an old edge sits ω or more
	// before newStart the merge is provably a no-op and can be skipped.
	// The sketch creation above it must still run: the full fold creates
	// a (possibly empty) sketch there, and byte identity tracks the
	// nil/non-nil pattern as much as the contents.
	newStart := v.chunks[k].edges[0].At
	for b := k - 1; b >= 0; b-- {
		c := &v.chunks[b]
		boundary := v.chunks[b+1].edges[0].At
		for i := len(c.edges) - 1; i >= 0; i-- {
			e := c.edges[i]
			if int64(boundary-e.At) >= v.omega {
				break
			}
			if e.Src == e.Dst {
				continue
			}
			dV := d[e.Dst]
			if dV == nil {
				continue
			}
			dU := d[e.Src]
			if dU == nil {
				dU = vhll.MustNew(v.precision)
				d[e.Src] = dU
			}
			if int64(newStart-e.At) >= v.omega {
				continue
			}
			_ = dU.MergeWindow(dV, int64(e.At), v.omega)
		}
	}
	out := make([]*vhll.Sketch, v.numNodes)
	par.ForEach(workers, v.numNodes, func(ui int) {
		var base *vhll.Sketch
		if ui < len(fc.sketches) {
			base = fc.sketches[ui]
		}
		switch {
		case d[ui] == nil:
			out[ui] = base // untouched by new chunks: share the cached sketch
		case base == nil:
			out[ui] = d[ui] // fresh delta, owned by this fold
		case d[ui].Empty():
			// Creation-only delta: the full fold would merge nothing into
			// the cached sketch, so its bytes are exactly the cached ones.
			out[ui] = base
		default:
			out[ui] = vhll.Union(base, d[ui]) // cached sketches are shared — never mutate
		}
	})
	return out
}

// FoldTail produces summaries over the retained chunks followed by tail
// — byte-identical to ComputeApprox over those interactions, and to the
// Fold the view would give had tail been sealed as its next chunk —
// without sealing, persisting or caching tail. The tail is scanned as a
// transient chunk appended to a copy of the view, which folds exactly as
// Fold does (its new chunks, the tail among them, walked back through
// the cached prefix as a windowed delta) but leaves the fold cache as it
// found it, so the next Fold sees only sealed state.
//
// tail must be strictly ascending in time, strictly after the last
// retained interaction, with non-negative node ids; ids at or past
// NumNodes widen the result's node range as sealing would. The slice is
// only read. Like Fold, the returned sketches may be shared with the
// cache and must be treated as read-only.
func (v ChunkView) FoldTail(tail []graph.Interaction) (*ApproxSummaries, error) {
	n := v.numNodes
	var prev graph.Time
	first := true
	if len(v.chunks) > 0 {
		last := v.chunks[len(v.chunks)-1].edges
		prev, first = last[len(last)-1].At, false
	}
	for i, e := range tail {
		if e.Src < 0 || e.Dst < 0 {
			return nil, fmt.Errorf("core: tail edge %d (%d,%d,%d) has a negative node id", i, e.Src, e.Dst, e.At)
		}
		if !first && e.At <= prev {
			return nil, fmt.Errorf("core: tail edge %d at time %d not after %d", i, e.At, prev)
		}
		prev, first = e.At, false
		n = max(n, int(max(e.Src, e.Dst))+1)
	}
	if len(tail) == 0 {
		return v.Fold(), nil
	}
	hashes := v.hashes
	for len(hashes) < n {
		// The view's slice is capped at its length, so this append copies
		// rather than writing into the builder's array.
		hashes = append(hashes, hll.Hash64(uint64(len(hashes))))
	}
	locals := make([]*vhll.Sketch, n)
	scanApproxBlock(tail, locals, hashes, v.omega, v.precision, nil)
	t := v
	t.numNodes = n
	t.edgeCount += len(tail)
	t.lastAt = tail[len(tail)-1].At
	t.chunks = append(v.chunks[:len(v.chunks):len(v.chunks)], approxChunk{edges: tail, locals: locals, owned: true})
	return t.fold(false), nil
}
