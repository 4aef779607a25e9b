// Package vhll implements the versioned HyperLogLog sketch of the paper
// (§3.2.2): a HyperLogLog in which every cell stores a small dominance-
// pruned list of (rank, timestamp) pairs instead of a single rank, so that
// the sketch can answer cardinality estimates restricted to a time window
// and can be merged with window filtering.
//
// The sketch is designed for reverse-chronological ingestion: items arrive
// with non-increasing timestamps (the IRS algorithms scan the interaction
// log backwards), and queries ask for the number of distinct items whose
// timestamp falls in [t, t+ω−1] where t is never later than the most recent
// arrival. Under that regime a pair (r, t) is *dominated* by a pair
// (r', t') with t' ≤ t and r' ≥ r: every admissible window containing t
// also contains t', so (r, t) can never determine a cell's maximum.
//
// Each cell list is therefore kept sorted by strictly ascending timestamp
// with strictly ascending ranks — a monotonic staircase. Its expected
// length is O(log ω) (paper Lemma 4), which is what makes the whole IRS
// sketch of a node cost O(β·log²ω) expected space (Lemma 6).
//
// # Flat arena layout
//
// Cell lists live in ONE contiguous []Entry arena per sketch instead of a
// per-cell slice each. A compact region table (offset, length, capacity —
// 8 bytes per populated cell) indexes the arena in first-touch order.
// While a sketch populates at most denseAbove cells a lookup scans that
// short table; past that, a per-cell slot map resolves cell → region in
// O(1). Every per-sketch cost — New, Clone, the encoder — therefore
// follows the populated cells rather than β. Staircase walks,
// Prune, Merge and CollapseWindow therefore scan adjacent memory, and the
// mutating hot paths are allocation-free at steady state: an insert that
// fits its region's capacity shifts in place; one that does not relocates
// the region to the arena frontier (amortized by capacity doubling);
// merge unions are written two-pointer style into reserved frontier space
// and copied back when they fit. Dead space left by relocation is tracked
// and squeezed out by an in-place generation of the arena once it exceeds
// half the allocation. None of this changes observable state: the codec,
// the estimators, and every collapse see exactly the per-cell staircases,
// and the representation-identity suite (golden_test.go) pins all of it
// byte for byte against the previous cells [][]Entry layout.
package vhll

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"ipin/internal/hll"
)

// Entry is one (rank, timestamp) pair in a cell list.
type Entry struct {
	At   int64
	Rank uint8
}

// EntryBytes is the payload size of one entry used for the paper-
// comparable accounting (PayloadBytes): an 8-byte timestamp plus a 1-byte
// rank. Go's in-memory representation pads this to 16 bytes; PayloadBytes
// deliberately counts payload so Table 4 is implementation-neutral, while
// MemoryBytes reports what the process actually retains (see DESIGN.md).
const EntryBytes = 9

// maxCellEntries bounds one cell's staircase: ranks are uint8 and
// strictly ascending, so no valid cell can hold more than 256 entries.
// The decoder enforces it up front instead of allocating first and
// rejecting through the invariant check afterwards.
const maxCellEntries = 256

// regionInitCap is the capacity of a freshly allocated cell region.
const regionInitCap = 4

// denseAbove is the switch point between the two cell-index modes: a
// sketch builds its β-entry slot map when a new cell would populate more
// than denseAbove cells, and drops it again when Prune leaves at most
// denseAbove/2 (the gap keeps a sketch hovering at the switch point from
// rebuilding the map on every prune). Below it, a lookup scans the
// occupied list. The value came from a measured sweep (DESIGN.md, "Flat
// staircase arena"); it is not a tuning option, because nothing
// observable depends on it.
const denseAbove = 32

// region locates one populated cell's staircase inside the arena:
// arena[off : off+n] holds the entries, arena[off : off+c] is the space
// the cell owns (n ≤ c). Relocation abandons the owned space to garbage.
type region struct {
	off uint32
	n   uint16
	c   uint16
}

// Sketch is a versioned HyperLogLog. The zero value is unusable; construct
// with New.
type Sketch struct {
	precision uint8
	live      int // total stored entries, Σ region.n
	// garbage counts arena slots owned by no region — space abandoned by
	// relocations and prunes. Invariant: Σ region.c + garbage == len(arena).
	garbage int
	arena   []Entry
	// regs and occupied are parallel: occupied[k] is the cell whose
	// staircase regs[k] locates. First-touch order, which is also the
	// order regions were carved from the arena, so walking the index
	// reads the arena front to back (relocated regions aside). Merges and
	// counts touch only populated cells, which in the IRS scan is a
	// handful of the β cells — the difference between O(β) and
	// O(populated) per edge.
	regs     []region
	occupied []uint32
	// slot is nil while the sketch is sparse: a lookup then scans
	// occupied, at most denseAbove cell ids. Once dense it maps cell →
	// 1+index into occupied/regs, 0 = unpopulated. The index is exact in
	// both modes: a cell pruned empty leaves it, so iteration cost always
	// equals the populated-cell count.
	slot []uint32
}

// New returns an empty sketch with 2^precision cells. Precision bounds are
// those of package hll.
func New(precision int) (*Sketch, error) {
	if precision < hll.MinPrecision || precision > hll.MaxPrecision {
		return nil, fmt.Errorf("vhll: precision %d outside [%d,%d]", precision, hll.MinPrecision, hll.MaxPrecision)
	}
	return &Sketch{precision: uint8(precision)}, nil
}

// MustNew is New for statically known precisions; it panics on error.
func MustNew(precision int) *Sketch {
	s, err := New(precision)
	if err != nil {
		panic(err)
	}
	return s
}

// Precision returns k = log2(number of cells).
func (s *Sketch) Precision() int { return int(s.precision) }

// NumCells returns β.
func (s *Sketch) NumCells() int { return 1 << s.precision }

// Empty reports whether the sketch currently holds no entries.
func (s *Sketch) Empty() bool { return s.live == 0 }

// AddHash inserts a pre-hashed item observed at time t. This is the
// ApproxAdd of the paper's Algorithm 3: the pair is ignored when
// dominated, and evicts every pair it dominates.
func (s *Sketch) AddHash(hash uint64, t int64) {
	cell, rank := hll.Split(hash, int(s.precision))
	s.insert(cell, Entry{At: t, Rank: rank})
}

// Add inserts an item identified by a 64-bit value at time t.
func (s *Sketch) Add(item uint64, t int64) { s.AddHash(hll.Hash64(item), t) }

// AddHashBatch inserts a batch of pre-hashed items, hashes[i] observed at
// ats[i]. Ingest paths hash a whole edge batch first (a tight, cache-
// friendly loop) and then touch cells once per item; both slices must
// have equal length.
func (s *Sketch) AddHashBatch(hashes []uint64, ats []int64) {
	if len(hashes) != len(ats) {
		panic(fmt.Sprintf("vhll: AddHashBatch with %d hashes, %d timestamps", len(hashes), len(ats)))
	}
	p := int(s.precision)
	for i, h := range hashes {
		cell, rank := hll.Split(h, p)
		s.insert(cell, Entry{At: ats[i], Rank: rank})
	}
}

// locate returns the index of cell in occupied/regs and whether it is
// populated.
func (s *Sketch) locate(cell uint32) (int, bool) {
	if s.slot != nil {
		si := s.slot[cell]
		return int(si) - 1, si != 0
	}
	return s.scan(cell)
}

// scan finds cell in the index of a sparse sketch. The index holds at
// most denseAbove cell ids (128 bytes), so a linear scan beats keeping it
// sorted: a new cell is appended instead of shifted into place.
func (s *Sketch) scan(cell uint32) (int, bool) {
	for k, c := range s.occupied {
		if c == cell {
			return k, true
		}
	}
	return 0, false
}

// link appends r as the region of a newly populated cell. Populating
// more than denseAbove cells builds the slot map.
func (s *Sketch) link(cell uint32, r region) {
	s.occupied = append(s.occupied, cell)
	s.regs = append(s.regs, r)
	switch {
	case s.slot != nil:
		s.slot[cell] = uint32(len(s.occupied))
	case len(s.occupied) > denseAbove:
		s.slot = make([]uint32, s.NumCells())
		for k, c := range s.occupied {
			s.slot[c] = uint32(k + 1)
		}
	}
}

// cellEntries returns the live staircase of region k.
func (s *Sketch) cellEntries(k int) []Entry {
	r := s.regs[k]
	return s.arena[r.off : uint32(r.off)+uint32(r.n)]
}

// insert places e into cell, maintaining the staircase invariant:
// strictly ascending At, strictly ascending Rank, no dominated pairs.
func (s *Sketch) insert(cell uint32, e Entry) {
	mx := m()
	mx.inserts.Inc()
	k, ok := s.locate(cell)
	if !ok {
		s.newRegion(cell, e)
		return
	}
	r := &s.regs[k]
	n := int(r.n)
	list := s.arena[r.off : int(r.off)+n]
	// idx = number of entries with At <= e.At (insertion point). Reverse-
	// chronological ingestion lands before the whole list almost every
	// time, so short-circuit the binary search on that case.
	idx := 0
	if e.At >= list[0].At {
		idx = upperBound(list, e.At)
	}
	// Dominated by an earlier-or-equal-time entry with rank >= ours?
	if idx > 0 && list[idx-1].Rank >= e.Rank {
		mx.dominated.Inc()
		return
	}
	// Evict an equal-time predecessor with a smaller rank (same version,
	// larger rank wins).
	lo := idx
	for lo > 0 && list[lo-1].At == e.At && list[lo-1].Rank < e.Rank {
		lo--
	}
	// Evict the run of later-time entries we dominate (ranks ascend, so
	// the dominated entries form a contiguous run starting at idx).
	hi := idx
	for hi < n && list[hi].Rank <= e.Rank {
		hi++
	}
	if lo == hi {
		// Pure insertion: shift in place when the region has room, else
		// relocate to the frontier with doubled capacity.
		if n < int(r.c) {
			room := s.arena[r.off : int(r.off)+n+1]
			copy(room[lo+1:], room[lo:n])
			room[lo] = e
			r.n++
			s.live++
			return
		}
		s.growInsert(k, lo, e)
		return
	}
	// Replace list[lo:hi] with e — never longer than before, so always in
	// place.
	mx.evicted.Add(int64(hi - lo))
	list[lo] = e
	copy(list[lo+1:], list[hi:])
	removed := hi - lo - 1
	r.n = uint16(n - removed)
	s.live -= removed
}

// newRegion allocates a region for a first-touched cell holding only e.
func (s *Sketch) newRegion(cell uint32, e Entry) {
	s.reserve(regionInitCap)
	off := len(s.arena)
	s.arena = s.arena[:off+regionInitCap]
	s.arena[off] = e
	s.link(cell, region{off: uint32(off), n: 1, c: regionInitCap})
	s.live++
}

// growInsert relocates region k to the arena frontier with doubled
// capacity, inserting e at staircase position lo on the way.
func (s *Sketch) growInsert(k int, lo int, e Entry) {
	n := int(s.regs[k].n)
	nc := int(s.regs[k].c) * 2
	if nc > maxCellEntries {
		nc = maxCellEntries
	}
	if nc < n+1 {
		nc = n + 1
	}
	s.reserve(nc)
	// reserve may have compacted; re-read the region after it.
	r := &s.regs[k]
	old := s.arena[r.off : int(r.off)+n]
	front := len(s.arena)
	s.arena = s.arena[:front+nc]
	dst := s.arena[front:]
	copy(dst, old[:lo])
	dst[lo] = e
	copy(dst[lo+1:], old[lo:])
	s.garbage += int(r.c)
	r.off = uint32(front)
	r.n = uint16(n + 1)
	r.c = uint16(nc)
	s.live++
}

// reserve makes room for k more arena slots, compacting the arena first
// when garbage dominates it (so retained memory tracks live state) and
// growing the allocation amortized-doubling otherwise.
func (s *Sketch) reserve(k int) {
	if cap(s.arena)-len(s.arena) >= k {
		return
	}
	if s.garbage*2 > len(s.arena) {
		s.compact(k)
		if cap(s.arena)-len(s.arena) >= k {
			return
		}
	}
	s.arena = slices.Grow(s.arena, k)
}

// compact rewrites the arena without the garbage left by relocations,
// preserving each region's capacity, with room for extra more slots.
func (s *Sketch) compact(extra int) {
	na := make([]Entry, 0, len(s.arena)-s.garbage+extra)
	for i := range s.regs {
		r := &s.regs[i]
		off := len(na)
		na = append(na, s.arena[r.off:int(r.off)+int(r.n)]...)
		na = na[:off+int(r.c)]
		r.off = uint32(off)
	}
	s.arena = na
	s.garbage = 0
}

// upperBound returns the number of entries with At <= t.
func upperBound(list []Entry, t int64) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].At <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// maxRankInWindow returns the largest rank among entries of list whose
// timestamp lies in [lo, hi], or 0 if none does. Because ranks ascend with
// time, that is the rank of the last entry with At <= hi, provided it is
// not before lo.
func maxRankInWindow(list []Entry, lo, hi int64) uint8 {
	idx := upperBound(list, hi)
	if idx == 0 {
		return 0
	}
	if e := list[idx-1]; e.At >= lo {
		return e.Rank
	}
	return 0
}

// EstimateWindow approximates the number of distinct items whose timestamp
// lies in [t, t+omega−1].
func (s *Sketch) EstimateWindow(t, omega int64) float64 {
	out := hll.MustNew(int(s.precision))
	s.CollapseWindowInto(out, t, omega)
	return out.Estimate()
}

// Estimate approximates the number of distinct items ever inserted,
// ignoring timestamps (every version participates).
func (s *Sketch) Estimate() float64 {
	out := hll.MustNew(int(s.precision))
	s.CollapseInto(out)
	return out.Estimate()
}

// Collapse flattens the sketch into a plain HyperLogLog holding, per cell,
// the maximum rank over all versions. The result supports O(β) unions,
// which is how the influence oracle combines per-node summaries (§4.1).
func (s *Sketch) Collapse() *hll.Sketch {
	out := hll.MustNew(int(s.precision))
	s.CollapseInto(out)
	return out
}

// CollapseInto raises out, cell by cell, to at least the Collapse of s:
// out becomes the union of itself and Collapse(), with no sketch built
// in between. A query over several seeds collapses each seed's sketch
// straight into its one union this way. The Into forms panic when out's
// precision differs from s's, because their callers build the union at
// the summaries' one precision and a mismatch is a programming error.
func (s *Sketch) CollapseInto(out *hll.Sketch) {
	s.checkInto(out)
	for k, cell := range s.occupied {
		r := s.regs[k]
		out.SetRegister(cell, s.arena[int(r.off)+int(r.n)-1].Rank)
	}
}

// checkInto panics unless out shares the sketch's precision.
func (s *Sketch) checkInto(out *hll.Sketch) {
	if out.Precision() != int(s.precision) {
		panic(fmt.Errorf("vhll: cannot collapse precision %d into %d", s.precision, out.Precision()))
	}
}

// EstimateBefore approximates the number of distinct items whose
// timestamp is at most deadline. Prefix queries are lossless under the
// dominance rule: a dropped pair's dominator has an earlier timestamp, so
// it is inside every prefix the dropped pair was. In the IRS summaries,
// where an item's timestamp is λ(u,v), this estimates how many nodes u
// reaches BY the deadline.
func (s *Sketch) EstimateBefore(deadline int64) float64 {
	out := hll.MustNew(int(s.precision))
	s.CollapseBeforeInto(out, deadline)
	return out.Estimate()
}

// CollapseBefore flattens the sketch restricted to timestamps at most
// deadline, for O(β) unions of deadline-bounded summaries.
func (s *Sketch) CollapseBefore(deadline int64) *hll.Sketch {
	out := hll.MustNew(int(s.precision))
	s.CollapseBeforeInto(out, deadline)
	return out
}

// CollapseBeforeInto is CollapseInto for CollapseBefore.
func (s *Sketch) CollapseBeforeInto(out *hll.Sketch, deadline int64) {
	s.checkInto(out)
	for k, cell := range s.occupied {
		list := s.cellEntries(k)
		if idx := upperBound(list, deadline); idx > 0 {
			out.SetRegister(cell, list[idx-1].Rank)
		}
	}
}

// CollapseWindow flattens the sketch restricted to timestamps in
// [t, t+omega−1].
func (s *Sketch) CollapseWindow(t, omega int64) *hll.Sketch {
	out := hll.MustNew(int(s.precision))
	s.CollapseWindowInto(out, t, omega)
	return out
}

// CollapseWindowInto is CollapseInto for CollapseWindow.
func (s *Sketch) CollapseWindowInto(out *hll.Sketch, t, omega int64) {
	s.checkInto(out)
	hi := t + omega - 1
	for k, cell := range s.occupied {
		if r := maxRankInWindow(s.cellEntries(k), t, hi); r > 0 {
			out.SetRegister(cell, r)
		}
	}
}

// MergeWindow folds other into s, keeping only entries whose timestamp tx
// satisfies tx − t < omega. This is the ApproxMerge of Algorithm 3: when
// the IRS scan processes interaction (u, v, t), node u inherits from ϕ(v)
// exactly the reachability entries still inside the window anchored at t.
//
// The admissible prefix of a staircase is itself a staircase, so each
// source cell folds in through the same two-pointer union as Merge —
// linear in the touched entries and allocation-free at steady state —
// instead of entry-by-entry insertion.
func (s *Sketch) MergeWindow(other *Sketch, t, omega int64) error {
	if other.precision != s.precision {
		return fmt.Errorf("vhll: cannot merge precision %d into %d", other.precision, s.precision)
	}
	mx := m()
	mx.merges.Inc()
	examined := int64(0)
	for k, cell := range other.occupied {
		r := other.regs[k]
		list := other.arena[r.off : int(r.off)+int(r.n)]
		// Cell entries ascend in At; once one falls outside the window
		// every later one does too. Whole-cell misses (common when the
		// window trails far behind the cell's activity) cost one compare.
		if list[0].At-t >= omega {
			examined++ // the entry that broke the walk was examined
			continue
		}
		cut := 1
		for cut < len(list) && list[cut].At-t < omega {
			cut++
		}
		examined += int64(cut)
		if cut < len(list) {
			examined++
		}
		j, ok := s.locate(cell)
		s.mergeCell(j, ok, cell, list[:cut])
	}
	mx.mergeEntries.Add(examined)
	return nil
}

// Merge folds every entry of other into s (no window filter), the general
// sketch union of paper Example 4.
func (s *Sketch) Merge(other *Sketch) error {
	if other.precision != s.precision {
		return fmt.Errorf("vhll: cannot merge precision %d into %d", other.precision, s.precision)
	}
	if other == s {
		return nil // self-union is the identity
	}
	mx := m()
	mx.merges.Inc()
	examined := int64(0)
	for k, cell := range other.occupied {
		list := other.cellEntries(k)
		examined += int64(len(list))
		j, ok := s.locate(cell)
		s.mergeCell(j, ok, cell, list)
	}
	mx.mergeEntries.Add(examined)
	return nil
}

// MergeInto folds src into dst without ever mutating src and returns the
// resulting sketch: a nil dst adopts a deep copy of src, a nil src leaves
// dst untouched. It is the clone-safe chunk-merge entry point of the
// incremental fold (core.ChunkView.Fold), where the source sketches are
// cached block-local state that must survive for the next fold and the
// destination starts out nil for most nodes. Both sketches must share a
// precision; MergeInto panics otherwise, because the incremental callers
// construct every sketch at one configured precision and a mismatch is a
// programming error, not input error.
func MergeInto(dst, src *Sketch) *Sketch {
	if src == nil {
		return dst
	}
	if dst == nil {
		return src.Clone()
	}
	if err := dst.Merge(src); err != nil {
		panic(err)
	}
	return dst
}

// Union returns a new sketch holding a ∪ b and mutates neither: the
// one-pass form of a.Clone() followed by Merge(b), and as tight as a
// clone. Each cell's union is written once, contiguously, where the
// clone-then-merge pair copies a tight clone and then outgrows it,
// relocating every cell the merge touches. The incremental fold merges
// its delta into shared cached sketches this way. Both sketches must
// share a precision; Union panics otherwise (see MergeInto).
func Union(a, b *Sketch) *Sketch {
	if a.precision != b.precision {
		panic(fmt.Errorf("vhll: cannot union precision %d with %d", b.precision, a.precision))
	}
	mx := m()
	mx.merges.Inc()
	mx.mergeEntries.Add(int64(b.live))
	cells := len(a.occupied)
	for _, cell := range b.occupied {
		if _, ok := a.locate(cell); !ok {
			cells++
		}
	}
	// Cell unions go to pooled scratch sized for both inputs; the result
	// copies out exactly what survived dominance.
	buf := unionScratch.Get().(*[]Entry)
	scratch := slices.Grow((*buf)[:0], a.live+b.live)
	u := &Sketch{
		precision: a.precision,
		regs:      make([]region, 0, cells),
		occupied:  make([]uint32, 0, cells),
	}
	for k, cell := range a.occupied {
		var other []Entry
		if j, ok := b.locate(cell); ok {
			other = b.cellEntries(j)
		}
		scratch = u.appendCell(scratch, cell, a.cellEntries(k), other)
	}
	for k, cell := range b.occupied {
		if _, ok := a.locate(cell); !ok {
			scratch = u.appendCell(scratch, cell, b.cellEntries(k), nil)
		}
	}
	u.arena = make([]Entry, len(scratch))
	copy(u.arena, scratch)
	*buf = scratch
	unionScratch.Put(buf)
	return u
}

// unionScratch recycles Union's working arenas.
var unionScratch = sync.Pool{New: func() any { return new([]Entry) }}

// appendCell populates cell, new to s, with the union of staircases x
// and y written at the end of arena, which must have room for both, and
// returns the extended arena. Region offsets index arena.
func (s *Sketch) appendCell(arena []Entry, cell uint32, x, y []Entry) []Entry {
	off := len(arena)
	n := len(x)
	if len(y) == 0 {
		arena = append(arena, x...)
	} else {
		n = unionStaircase(arena[off:off+len(x)+len(y)], x, y)
		arena = arena[:off+n]
	}
	s.link(cell, region{off: uint32(off), n: uint16(n), c: uint16(n)})
	s.live += n
	return arena
}

// mergeCell folds one source staircase into a cell: the one at index k
// of the cell index when ok, else a first-touched cell, which adopts a
// tight copy. Both lists are staircases (ascending At, strictly ascending
// Rank), so the union is a single linear sweep in time order keeping
// entries whose rank exceeds everything emitted so far — O(m+n), against
// the O(m·n) worst case of rebuilding insert by insert. The union is
// written into reserved space at the arena frontier (never aliasing
// either input) and copied back into the cell's region when it fits its
// capacity; otherwise the frontier space becomes the cell's new region.
// Steady-state merges — where the destination cell has seen the churn
// before — allocate nothing. The parallel scan's stitch fold leans on
// this: it re-merges whole block-local sketches once per block boundary.
func (s *Sketch) mergeCell(k int, ok bool, cell uint32, other []Entry) {
	if !ok {
		s.reserve(len(other))
		off := len(s.arena)
		s.arena = s.arena[:off+len(other)]
		copy(s.arena[off:], other)
		s.link(cell, region{off: uint32(off), n: uint16(len(other)), c: uint16(len(other))})
		s.live += len(other)
		return
	}
	need := int(s.regs[k].n) + len(other)
	s.reserve(need)
	r := &s.regs[k]
	list := s.arena[r.off : int(r.off)+int(r.n)]
	front := len(s.arena)
	out := s.arena[front : front+need] // reserved, beyond len, within cap
	n := unionStaircase(out, list, other)
	if n <= int(r.c) {
		// The union fits where the cell already lives; the frontier stays
		// untouched scratch.
		copy(s.arena[r.off:int(r.off)+n], out[:n])
		s.live += n - int(r.n)
		r.n = uint16(n)
		return
	}
	s.arena = s.arena[:front+need]
	s.garbage += int(r.c)
	s.live += n - int(r.n)
	r.off = uint32(front)
	r.n = uint16(n)
	r.c = uint16(need)
}

// unionStaircase merges staircases a and b into dst (which must not alias
// either and must hold len(a)+len(b) entries), keeping the dominance-
// maximal pairs: sweep in time order, emit when the rank exceeds
// everything emitted. Returns the number of entries written.
func unionStaircase(dst, a, b []Entry) int {
	n := 0
	last := -1 // rank of the last emitted entry; ranks fit in uint8
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var e Entry
		switch {
		case j == len(b):
			e = a[i]
			i++
		case i == len(a):
			e = b[j]
			j++
		case a[i].At < b[j].At:
			e = a[i]
			i++
		case b[j].At < a[i].At:
			e = b[j]
			j++
		default: // same version: the larger rank wins
			e = a[i]
			if b[j].Rank > e.Rank {
				e = b[j]
			}
			i++
			j++
		}
		if int(e.Rank) > last {
			dst[n] = e
			n++
			last = int(e.Rank)
		}
	}
	return n
}

// Prune drops entries that can never again influence a window query
// anchored at or before current: those with At − current + 1 > omega.
// This is the "periodically entries are removed" step of §3.2.2, used by
// sliding-window distinct counting. The IRS algorithms do NOT prune,
// because their final per-node estimates span every entry ever retained.
// A cell pruned empty leaves the occupied index immediately (its region
// returns to garbage; the survivors keep their order), so iteration cost
// after a prune always matches the surviving entry count — a long-lived
// sketch never walks stale slots. A dense sketch pruned down to
// denseAbove/2 cells drops its slot map.
func (s *Sketch) Prune(current, omega int64) {
	mx := m()
	mx.prunes.Inc()
	dropped := int64(0)
	hi := current + omega - 1
	w := 0
	for k, cell := range s.occupied {
		r := s.regs[k]
		list := s.arena[r.off : int(r.off)+int(r.n)]
		idx := upperBound(list, hi)
		dropped += int64(len(list) - idx)
		s.live -= len(list) - idx
		r.n = uint16(idx)
		if r.n == 0 {
			s.garbage += int(r.c)
			if s.slot != nil {
				s.slot[cell] = 0
			}
			continue
		}
		s.occupied[w], s.regs[w] = cell, r
		if s.slot != nil {
			s.slot[cell] = uint32(w + 1)
		}
		w++
	}
	s.occupied, s.regs = s.occupied[:w], s.regs[:w]
	if w <= denseAbove/2 {
		s.slot = nil
	}
	mx.prunedEntries.Add(dropped)
}

// EntryCount returns the total number of stored (rank, timestamp) pairs.
func (s *Sketch) EntryCount() int { return s.live }

// PayloadBytes returns the implementation-neutral payload size of the
// sketch — EntryBytes per stored pair, the quantity of the paper's
// Table 4. Empty cells cost nothing.
func (s *Sketch) PayloadBytes() int { return s.live * EntryBytes }

// entrySize and regionSize are the in-memory footprints the truthful
// accounting multiplies by.
const (
	entrySize  = int(unsafe.Sizeof(Entry{}))
	regionSize = int(unsafe.Sizeof(region{}))
)

// MemoryBytes returns the bytes the sketch actually retains: the arena
// allocation (capacity, not just live entries), the region and occupied
// indexes, and the per-cell slot map of a dense sketch. This is what a
// resident-memory budget observes; for the paper-comparable payload
// accounting use PayloadBytes.
func (s *Sketch) MemoryBytes() int {
	return cap(s.arena)*entrySize +
		cap(s.regs)*regionSize +
		cap(s.occupied)*4 +
		len(s.slot)*4 +
		int(unsafe.Sizeof(*s))
}

// Clone returns a deep copy. The copy's arena is rebuilt tight — live
// entries only, no relocation garbage, capacities trimmed — because
// clones are what fold caches and checkpoints retain long-term.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		precision: s.precision,
		live:      s.live,
		arena:     make([]Entry, 0, s.live),
		regs:      make([]region, 0, len(s.regs)),
		occupied:  slices.Clone(s.occupied),
		slot:      slices.Clone(s.slot),
	}
	for k := range s.regs {
		r := s.regs[k]
		off := len(c.arena)
		c.arena = append(c.arena, s.arena[r.off:int(r.off)+int(r.n)]...)
		c.regs = append(c.regs, region{off: uint32(off), n: r.n, c: r.n})
	}
	return c
}

// Cell exposes a copy of one cell's list, for tests and diagnostics.
func (s *Sketch) Cell(i int) []Entry {
	if k, ok := s.locate(uint32(i)); ok {
		return append([]Entry(nil), s.cellEntries(k)...)
	}
	return nil
}

// CheckInvariant verifies the staircase property of every cell list —
// strictly ascending timestamps, strictly ascending ranks, which together
// mean no stored pair dominates another — and the consistency of the flat
// layout: a sparse index holds distinct cells within the switch point, a
// dense slot map and the occupied index agree exactly, regions are in
// bounds and disjoint, and the live/garbage accounting sums match the
// arena. It returns the first violation, or nil. Property tests call
// this after random operation sequences.
func (s *Sketch) CheckInvariant() error {
	if len(s.regs) != len(s.occupied) {
		return fmt.Errorf("vhll: %d regions for %d occupied cells", len(s.regs), len(s.occupied))
	}
	switch {
	case s.slot == nil && len(s.occupied) > denseAbove:
		return fmt.Errorf("vhll: sparse index holds %d cells, above the switch point %d", len(s.occupied), denseAbove)
	case s.slot != nil && len(s.slot) != s.NumCells():
		return fmt.Errorf("vhll: slot map covers %d of %d cells", len(s.slot), s.NumCells())
	}
	live, caps := 0, 0
	for k, cell := range s.occupied {
		if int(cell) >= s.NumCells() {
			return fmt.Errorf("vhll: occupied cell %d out of range", cell)
		}
		if s.slot == nil {
			if j := slices.Index(s.occupied[:k], cell); j >= 0 {
				return fmt.Errorf("vhll: cell %d indexed twice (at %d and %d)", cell, j, k)
			}
		} else if s.slot[cell] != uint32(k+1) {
			return fmt.Errorf("vhll: cell %d at occupied slot %d but slot map says %d", cell, k, int(s.slot[cell])-1)
		}
		r := s.regs[k]
		if r.n == 0 {
			return fmt.Errorf("vhll: cell %d occupied with an empty region", cell)
		}
		if r.n > r.c {
			return fmt.Errorf("vhll: cell %d region holds %d entries over capacity %d", cell, r.n, r.c)
		}
		if int(r.off)+int(r.c) > len(s.arena) {
			return fmt.Errorf("vhll: cell %d region [%d,%d) outside arena of %d", cell, r.off, int(r.off)+int(r.c), len(s.arena))
		}
		live += int(r.n)
		caps += int(r.c)
		list := s.arena[r.off : int(r.off)+int(r.n)]
		for j := 1; j < len(list); j++ {
			if list[j].At < list[j-1].At {
				return fmt.Errorf("vhll: cell %d: timestamps out of order at %d (%d < %d)", cell, j, list[j].At, list[j-1].At)
			}
			if list[j].At == list[j-1].At {
				// Equal-time pairs cannot both be maximal: the higher rank
				// dominates the lower. Unreachable through the API (the
				// dominance property test pins it); only hostile decode
				// input can present one.
				return fmt.Errorf("vhll: cell %d: dominated pair at %d (equal time %d)", cell, j, list[j].At)
			}
			if list[j].Rank <= list[j-1].Rank {
				return fmt.Errorf("vhll: cell %d: ranks not strictly ascending at %d (%d <= %d)", cell, j, list[j].Rank, list[j-1].Rank)
			}
		}
	}
	for cell, si := range s.slot {
		if si == 0 {
			continue
		}
		if int(si) > len(s.occupied) || s.occupied[si-1] != uint32(cell) {
			return fmt.Errorf("vhll: slot map points cell %d at occupied entry %d", cell, si-1)
		}
	}
	if live != s.live {
		return fmt.Errorf("vhll: live count %d, regions hold %d", s.live, live)
	}
	if caps+s.garbage != len(s.arena) {
		return fmt.Errorf("vhll: capacities %d + garbage %d != arena %d", caps, s.garbage, len(s.arena))
	}
	// Regions must not overlap: sort by offset and check adjacency.
	if len(s.regs) > 1 {
		order := make([]int, len(s.regs))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return int(s.regs[a].off) - int(s.regs[b].off) })
		for i := 1; i < len(order); i++ {
			prev, cur := s.regs[order[i-1]], s.regs[order[i]]
			if int(prev.off)+int(prev.c) > int(cur.off) {
				return fmt.Errorf("vhll: regions of cells %d and %d overlap", s.occupied[order[i-1]], s.occupied[order[i]])
			}
		}
	}
	return nil
}
