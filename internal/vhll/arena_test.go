package vhll

import (
	"math/rand"
	"slices"
	"testing"
)

// Tests for the flat arena layout and the two audited defect classes:
// dominated entries surviving insert's staircase truncation, and stale
// occupied slots surviving Prune.

// maximalStaircase computes the dominance-maximal set of (rank, time)
// pairs by brute force: for each distinct timestamp keep the max rank,
// sweep in ascending time, and keep a pair only when its rank exceeds
// every rank at an earlier-or-equal time. This is the ground truth a
// cell's staircase must equal after ANY insertion order.
func maximalStaircase(pairs []Entry) []Entry {
	if len(pairs) == 0 {
		return nil
	}
	byAt := map[int64]uint8{}
	for _, e := range pairs {
		if e.Rank > byAt[e.At] {
			byAt[e.At] = e.Rank
		}
	}
	ats := make([]int64, 0, len(byAt))
	for at := range byAt {
		ats = append(ats, at)
	}
	slices.Sort(ats)
	var out []Entry
	best := -1
	for _, at := range ats {
		if r := byAt[at]; int(r) > best {
			out = append(out, Entry{At: at, Rank: r})
			best = int(r)
		}
	}
	return out
}

// TestInsertDominanceAudit is the satellite-1 audit pinned as a test:
// adversarial insertion orders — equal ranks arriving at newer
// timestamps, dominated entries arriving before their dominators, ties
// on both axes — must never leave a dominated pair in a cell. The
// staircase must equal the brute-force maximal set exactly, and
// CheckInvariant (which rejects equal-time pairs as dominated) must hold
// after every single insert.
func TestInsertDominanceAudit(t *testing.T) {
	// Hand-built orders that would expose a truncation defect: each is a
	// sequence of (rank, at) into one cell.
	adversarial := [][]Entry{
		// Equal rank, newer timestamp after older: the newer one is
		// dominated and must not survive.
		{{At: 10, Rank: 5}, {At: 20, Rank: 5}},
		// Same, arriving oldest-last (reverse ingestion): the late-arriving
		// older entry must evict the newer equal-rank one.
		{{At: 20, Rank: 5}, {At: 10, Rank: 5}},
		// A low-rank entry sandwiched so that the eviction run must clear
		// multiple successors at once.
		{{At: 30, Rank: 3}, {At: 20, Rank: 2}, {At: 10, Rank: 1}, {At: 5, Rank: 3}},
		// Equal timestamp, ascending ranks: only the max survives.
		{{At: 10, Rank: 1}, {At: 10, Rank: 2}, {At: 10, Rank: 3}},
		// Equal timestamp, descending ranks.
		{{At: 10, Rank: 3}, {At: 10, Rank: 2}, {At: 10, Rank: 1}},
		// Insert between two staircase steps dominating neither side.
		{{At: 10, Rank: 1}, {At: 30, Rank: 5}, {At: 20, Rank: 3}},
		// Insert dominating its successor but not predecessor, with an
		// equal-time twin of the successor present.
		{{At: 10, Rank: 2}, {At: 20, Rank: 3}, {At: 15, Rank: 3}},
	}
	for i, seq := range adversarial {
		s := MustNew(testPrecision)
		for _, e := range seq {
			s.AddHash(mkHash(testPrecision, 0, e.Rank), e.At)
			if err := s.CheckInvariant(); err != nil {
				t.Fatalf("case %d: invariant after inserting %+v: %v", i, e, err)
			}
		}
		want := maximalStaircase(seq)
		if got := s.Cell(0); !slices.Equal(got, want) {
			t.Errorf("case %d: staircase %+v, want maximal set %+v", i, got, want)
		}
	}

	// Randomized sweep: arbitrary orders, heavy rank/time collisions.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		s := MustNew(testPrecision)
		perCell := map[uint32][]Entry{}
		for op := 0; op < 120; op++ {
			cell := uint32(rng.Intn(3))
			e := Entry{At: int64(rng.Intn(12)), Rank: uint8(rng.Intn(5) + 1)}
			s.AddHash(mkHash(testPrecision, cell, e.Rank), e.At)
			perCell[cell] = append(perCell[cell], e)
			if err := s.CheckInvariant(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
		for cell, pairs := range perCell {
			want := maximalStaircase(pairs)
			if got := s.Cell(int(cell)); !slices.Equal(got, want) {
				t.Fatalf("trial %d cell %d: staircase %+v, want %+v", trial, cell, got, want)
			}
		}
	}
}

// TestPruneCompactsOccupied is the satellite-2 regression: after Prune
// empties cells, the occupied index must shrink with them — iteration
// cost and EntryCount must agree — and re-populating a pruned cell must
// not duplicate its index entry.
func TestPruneCompactsOccupied(t *testing.T) {
	s := MustNew(6)
	// Prune drops entries NEWER than the horizon current+ω−1 (the reverse
	// scan's anchor only ever moves earlier). Give the odd cells entries
	// beyond the horizon so they prune empty.
	for cell := 0; cell < 64; cell++ {
		at := int64(10 + cell)
		if cell%2 == 1 {
			at = int64(1000 + cell) // beyond the horizon below
		}
		s.AddHash(mkHash(6, uint32(cell), 3), at)
	}
	s.Prune(50, 100) // horizon 149: only the even cells survive
	populated := 0
	entries := 0
	for cell := 0; cell < s.NumCells(); cell++ {
		if l := s.Cell(cell); len(l) > 0 {
			populated++
			entries += len(l)
		}
	}
	if len(s.occupied) != populated {
		t.Fatalf("occupied index has %d slots for %d populated cells", len(s.occupied), populated)
	}
	if got := s.EntryCount(); got != entries {
		t.Fatalf("EntryCount %d, cells hold %d", got, entries)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// Re-populate a pruned cell and prune again: exactly one index slot.
	s.AddHash(mkHash(6, 1, 4), 120)
	s.AddHash(mkHash(6, 1, 5), 110)
	if err := s.CheckInvariant(); err != nil {
		t.Fatalf("after re-populating pruned cell: %v", err)
	}
	count := 0
	for _, cell := range s.occupied {
		if cell == 1 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("cell 1 appears %d times in occupied", count)
	}

	// Prune everything (horizon before every entry): the index must drain.
	s.Prune(-500, 10)
	if !s.Empty() || s.EntryCount() != 0 || len(s.occupied) != 0 {
		t.Fatalf("full prune left live=%d occupied=%d", s.EntryCount(), len(s.occupied))
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestPruneBoundsRetainedMemory: a sketch that cycles through populate/
// prune must not accrete arena garbage without bound — reserve compacts
// once garbage dominates, so retained bytes stay proportional to the
// working set, which is what MemoryBytes now reports.
func TestPruneBoundsRetainedMemory(t *testing.T) {
	s := MustNew(6)
	peak := 0
	at := int64(1 << 40)
	for cycle := 0; cycle < 200; cycle++ {
		for i := 0; i < 200; i++ {
			at--
			s.AddHash(mkHash(6, uint32(i%64), uint8(i%20+1)), at)
		}
		s.Prune(at, 50)
		if b := s.MemoryBytes(); b > peak {
			peak = b
		}
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// The working set is at most ~64 cells × a short staircase; 64 KiB of
	// retained state means compaction never ran.
	if peak > 64<<10 {
		t.Fatalf("retained memory peaked at %d bytes; garbage is not being compacted", peak)
	}
}

// TestSteadyStateAllocFree pins the allocation contract: at steady state
// (regions warmed to their working capacity) Add, AddHashBatch, Merge and
// MergeWindow perform zero heap allocations per op, and so does encoding
// into a reused buffer — with the sketches below the cell-index switch
// point (no slot map) and above it.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, c := range []struct {
		name  string
		cells int
	}{{"sparse", denseAbove / 2}, {"dense", 512}} {
		t.Run(c.name, func(t *testing.T) { testAllocFree(t, c.cells) })
	}
}

// testAllocFree runs the steady-state paths on precision-9 sketches over
// the given number of distinct cells.
func testAllocFree(t *testing.T, cells int) {
	// Add: reverse stream of repeating items — every op is an in-place
	// front eviction once the staircase is warm.
	s := MustNew(9)
	at := int64(1 << 40)
	hashes := make([]uint64, 8*cells)
	for i := range hashes {
		hashes[i] = mkHash(9, uint32(i%cells), uint8(i%16+1))
	}
	for i := 0; i < 3*len(hashes); i++ {
		at--
		s.AddHash(hashes[i%len(hashes)], at)
	}
	i := 0
	if got := testing.AllocsPerRun(2000, func() {
		at--
		s.AddHash(hashes[i%len(hashes)], at)
		i++
	}); got != 0 {
		t.Errorf("Add steady state: %.1f allocs/op, want 0", got)
	}
	ats := make([]int64, len(hashes))
	if got := testing.AllocsPerRun(100, func() {
		for j := range ats {
			at--
			ats[j] = at
		}
		s.AddHashBatch(hashes, ats)
	}); got != 0 {
		t.Errorf("AddHashBatch steady state: %.1f allocs/op, want 0", got)
	}

	// Merge: once dst has adopted src's cells, re-merging the same content
	// unions in place.
	src := MustNew(9)
	for j := range hashes {
		src.AddHash(hashes[j], int64(1<<30-j))
	}
	dst := MustNew(9)
	if err := dst.Merge(src); err != nil {
		t.Fatal(err)
	}
	if dense := cells > denseAbove; (s.slot != nil) != dense || (dst.slot != nil) != dense {
		t.Fatalf("%d cells: want dense=%v, got %v and %v", cells, dense, s.slot != nil, dst.slot != nil)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := dst.Merge(src); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Merge steady state: %.1f allocs/op, want 0", got)
	}

	// MergeWindow over the same warmed destination.
	if err := dst.MergeWindow(src, 1<<30-5000, 10000); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := dst.MergeWindow(src, 1<<30-5000, 10000); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("MergeWindow steady state: %.1f allocs/op, want 0", got)
	}

	buf, _ := dst.AppendBinary(nil)
	if got := testing.AllocsPerRun(500, func() {
		buf, _ = dst.AppendBinary(buf[:0])
	}); got != 0 {
		t.Errorf("AppendBinary into a reused buffer: %.1f allocs/op, want 0", got)
	}
}
