package core

import (
	"math/bits"

	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/par"
)

// ExactSummaries holds the output of the exact one-pass algorithm: for
// every node u, the IRS summary ϕω(u) mapping each reachable node v to
// λ(u,v), the earliest end time of an admissible channel u→v.
type ExactSummaries struct {
	// Omega is the maximum channel duration the summaries were built with.
	Omega int64
	// Phi[u] is ϕω(u). A nil map means σω(u) is empty.
	Phi []map[graph.NodeID]graph.Time
}

// ComputeExact runs the paper's Algorithm 2: a single scan over the
// interactions in reverse chronological order. Processing interaction
// (u,v,t) first adds (v,t) to ϕ(u) — the channel consisting of that one
// interaction — and then merges in every entry (x,t_x) of ϕ(v) with
// t_x − t < ω, i.e. every channel from v that still fits the window when
// prefixed with (u,v,t). Entries keep the minimum end time (Add).
//
// The log must be sorted ascending; ComputeExact scans it backwards
// without copying. Self-loops are skipped: they create no channel to a
// new node. Time is O(n·m) worst case and space O(n²) (paper Lemma 3).
// The scan works in per-node open-addressing tables and builds the Phi
// maps once, at the end.
func ComputeExact(l *graph.Log, omega int64) *ExactSummaries {
	span := obs.NewSpan(sink(), "scan/exact")
	tabs := make([]exactTable, l.NumNodes)
	summaries, entries := scanExactBlock(l.Interactions, tabs, omega, span)
	s := &ExactSummaries{Omega: omega, Phi: exactMaps(tabs, 1)}
	span.Endf("%s edges, %s summaries, %s entries, %s",
		obs.Count(int64(l.Len())), obs.Count(summaries), obs.Count(entries), obs.Bytes(entries*entryBytesExact))
	return s
}

// scanExactBlock is Algorithm 2's per-edge step over one contiguous edge
// slice, latest edge first, into the working tables tabs (one per node).
// ComputeExact runs it over the whole log and ComputeExactParallel over
// each time block; span reports progress on the former and is nil on the
// concurrent blocks. It returns the summaries created and the entries
// added.
func scanExactBlock(edges []graph.Interaction, tabs []exactTable, omega int64, span *obs.Span) (summaries, entries int64) {
	mx := m()
	total := int64(len(edges))
	var buf []exactSlot
	for i := len(edges) - 1; i >= 0; i-- {
		e := edges[i]
		mx.exactEdges.Inc()
		if e.Src == e.Dst {
			continue
		}
		phiU := &tabs[e.Src]
		if phiU.count == 0 {
			summaries++
			mx.exactSummaries.Inc()
		}
		added := int64(0)
		if phiU.add(e.Dst, e.At) {
			added++
		}
		if phiV := &tabs[e.Dst]; phiV.count > 0 {
			mx.exactMerges.Inc()
			mx.exactMergeEntries.Add(int64(phiV.count))
			merged, skipped := phiU.mergeWindow(phiV, e.Src, e.At, omega, &buf)
			added += merged
			mx.exactWindowSkips.Add(skipped)
		}
		entries += added
		mx.exactEntriesAdded.Add(added)
		if done := total - int64(i); done&progressMask == 0 && span.Due() {
			span.Progressf("%s/%s edges, %s summaries, %s entries, %s",
				obs.Count(done), obs.Count(total), obs.Count(summaries),
				obs.Count(entries), obs.Bytes(entries*entryBytesExact))
		}
	}
	return summaries, entries
}

// exactTable is one node's working summary during an exact scan: an
// open-addressing hash table from node id to the minimum channel end
// time, probed linearly and doubled before it passes a load factor of
// 3/4. A slot's key is the node id plus one, so a zero slot is empty and
// a fresh table needs no initialisation; the zero table is an empty
// summary and owns no slots.
type exactTable struct {
	slots []exactSlot
	count int
	shift uint // 64 − log2(len(slots)): the hash keeps the top bits
}

type exactSlot struct {
	key uint32 // node id + 1; 0 marks an empty slot
	t   graph.Time
}

// exactTableMinSlots is a new table's capacity.
const exactTableMinSlots = 8

// home is key's first probe slot: Fibonacci hashing, which spreads the
// dense small ids of a node range evenly over the table.
func (tb *exactTable) home(key uint32) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> tb.shift)
}

// add is the Add of Algorithm 2: insert (v,t) keeping the minimum end
// time when v is already present. It reports whether v was newly
// inserted.
func (tb *exactTable) add(v graph.NodeID, t graph.Time) bool {
	if 4*tb.count >= 3*len(tb.slots) {
		tb.grow()
	}
	key, mask := uint32(v)+1, len(tb.slots)-1
	for i := tb.home(key); ; i = (i + 1) & mask {
		s := &tb.slots[i]
		switch s.key {
		case key:
			if t < s.t {
				s.t = t
			}
			return false
		case 0:
			s.key, s.t = key, t
			tb.count++
			return true
		}
	}
}

func (tb *exactTable) grow() {
	old := tb.slots
	size := max(2*len(old), exactTableMinSlots)
	tb.slots = make([]exactSlot, size)
	tb.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := tb.home(s.key)
		for tb.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		tb.slots[i] = s
	}
}

// mergeWindow merges into tb every entry (x, t_x) of src that extends
// through an interaction from u at time at: x ≠ u and at < t_x < at+ω.
// x == u would record u as influencing itself through a temporal cycle;
// the paper's worked Example 2 excludes such self-entries. t_x > at keeps
// channels strictly time-increasing (Definition 1) even when the input
// violates the distinct-timestamps assumption; on distinct stamps it
// always holds in the scan. tb and src must be distinct tables. It
// returns the entries newly inserted and the entries the filters drop.
//
// The filter runs without branches into the scratch slice *buf, reused
// across calls: about half of src's slots are empty and most entries
// fall outside the window, so branching on either mispredicts often.
func (tb *exactTable) mergeWindow(src *exactTable, u graph.NodeID, at graph.Time, omega int64, buf *[]exactSlot) (added, skipped int64) {
	if cap(*buf) < len(src.slots) {
		*buf = make([]exactSlot, len(src.slots))
	}
	keep := (*buf)[:len(src.slots)]
	self, n := uint32(u)+1, 0
	for _, s := range src.slots {
		keep[n] = s
		n += b2i(s.key != 0) & b2i(s.key != self) & b2i(s.t > at) & b2i(int64(s.t-at) < omega)
	}
	for _, s := range keep[:n] {
		if tb.add(graph.NodeID(s.key-1), s.t) {
			added++
		}
	}
	return added, int64(src.count - n)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fold merges src into tb under the minimum and empties src; into an
// empty tb it moves src's slots instead of copying them.
func (tb *exactTable) fold(src *exactTable) {
	if tb.count == 0 {
		*tb, *src = *src, exactTable{}
		return
	}
	for _, s := range src.slots {
		if s.key != 0 {
			tb.add(graph.NodeID(s.key-1), s.t)
		}
	}
	*src = exactTable{}
}

// exactMaps builds the public Phi maps from the working tables with up
// to workers goroutines. Each map is pre-sized to its table's count, and
// each table is dropped once its map is built, so the peak stays near
// one copy of the state.
func exactMaps(tabs []exactTable, workers int) []map[graph.NodeID]graph.Time {
	phi := make([]map[graph.NodeID]graph.Time, len(tabs))
	par.ForEach(workers, len(tabs), func(u int) {
		tb := &tabs[u]
		if tb.count == 0 {
			return
		}
		out := make(map[graph.NodeID]graph.Time, tb.count)
		for _, s := range tb.slots {
			if s.key != 0 {
				out[graph.NodeID(s.key-1)] = s.t
			}
		}
		phi[u] = out
		*tb = exactTable{}
	})
	return phi
}

// NumNodes returns n.
func (s *ExactSummaries) NumNodes() int { return len(s.Phi) }

// IRSSize returns |σω(u)|.
func (s *ExactSummaries) IRSSize(u graph.NodeID) int { return len(s.Phi[u]) }

// IRS returns σω(u) as a copied slice of node IDs (unordered).
func (s *ExactSummaries) IRS(u graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.Phi[u]))
	for v := range s.Phi[u] {
		out = append(out, v)
	}
	return out
}

// Lambda returns λ(u,v) and whether v ∈ σω(u).
func (s *ExactSummaries) Lambda(u, v graph.NodeID) (graph.Time, bool) {
	t, ok := s.Phi[u][v]
	return t, ok
}

// EntryCount returns the total number of (v, λ) entries over all nodes —
// the quantity whose worst case is n² (paper Lemma 3).
func (s *ExactSummaries) EntryCount() int {
	n := 0
	for _, phi := range s.Phi {
		n += len(phi)
	}
	return n
}

// entryBytesExact is the payload of one exact summary entry: a 4-byte
// node ID plus an 8-byte timestamp.
const entryBytesExact = 12

// MemoryBytes returns the payload size of all summaries, mirroring the
// accounting used for the sketches so Table 4 comparisons are fair.
func (s *ExactSummaries) MemoryBytes() int { return s.EntryCount() * entryBytesExact }

// SpreadExact returns |⋃_{u∈S} σω(u)|, the exact influence oracle of
// paper §4.1, by unioning the summaries and discarding duplicates. It
// needs no index; ExactOracle answers the same query from one, and the
// tests hold the two equal.
func (s *ExactSummaries) SpreadExact(seeds []graph.NodeID) int {
	union := make(map[graph.NodeID]struct{})
	for _, u := range seeds {
		for v := range s.Phi[u] {
			union[v] = struct{}{}
		}
	}
	return len(union)
}
