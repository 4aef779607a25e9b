package vhll

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ipin/internal/hll"
)

// Tests for the two cell-index modes (a scanned index below the switch
// point, a slot map above it) and for the populated-cell encoder.

// referenceMarshal is the per-cell VHL1 encoder the append encoder
// replaced, kept as the byte-for-byte reference: it walks every cell
// 0..β−1 and writes one count per cell, then the cell's entries.
func referenceMarshal(s *Sketch) []byte {
	var buf bytes.Buffer
	buf.Write(vhllMagic[:])
	buf.WriteByte(s.precision)
	var tmp [binary.MaxVarintLen64]byte
	for i := 0; i < s.NumCells(); i++ {
		var list []Entry
		if k, ok := s.locate(uint32(i)); ok {
			list = s.cellEntries(k)
		}
		n := binary.PutUvarint(tmp[:], uint64(len(list)))
		buf.Write(tmp[:n])
		prev := int64(0)
		for _, e := range list {
			n = binary.PutVarint(tmp[:], e.At-prev)
			buf.Write(tmp[:n])
			buf.WriteByte(e.Rank)
			prev = e.At
		}
	}
	return buf.Bytes()
}

// withCells returns a precision-9 sketch with exactly n populated cells
// (0, 3, 6, …), each holding a short staircase.
func withCells(n int) *Sketch {
	s := MustNew(9)
	for c := 0; c < n; c++ {
		s.AddHash(goldenHash(9, uint32(3*c), 2), int64(1000-c))
		s.AddHash(goldenHash(9, uint32(3*c), 1), int64(900-c))
	}
	return s
}

// TestAppendBinaryMatchesReference drives random sketches through both
// index modes — sparse, dense, promoted mid-merge, demoted by Prune — and
// requires the append encoder to reproduce the reference bytes exactly,
// both into an empty buffer and appended after existing content.
func TestAppendBinaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	modes := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		p := []int{4, 6, 9, 9, 9, 11}[rng.Intn(6)]
		s := MustNew(p)
		items := []int{1, 5, denseAbove - 1, denseAbove, denseAbove + 1, 3 * denseAbove, 2000}[rng.Intn(7)]
		universe := 1 + rng.Intn(4*items+1)
		cur := int64(1 << 30)
		for i := 0; i < items; i++ {
			cur -= int64(rng.Intn(3))
			s.AddHash(hll.Hash64(uint64(rng.Intn(universe))), cur)
		}
		switch rng.Intn(4) {
		case 1: // merge a random source, sparse or dense
			o := MustNew(p)
			for i := rng.Intn(3 * denseAbove); i > 0; i-- {
				o.AddHash(hll.Hash64(uint64(rng.Intn(1<<12))), cur+int64(rng.Intn(100)))
			}
			if err := s.MergeWindow(o, cur, int64(1+rng.Intn(200))); err != nil {
				t.Fatal(err)
			}
		case 2: // prune, possibly back below the switch point
			s.Prune(cur, int64(1+rng.Intn(3*items+1)))
		case 3:
			s = s.Clone()
		}
		if err := s.CheckInvariant(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		modes[s.slot != nil]++
		want := referenceMarshal(s)
		got, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (p=%d, %d cells, dense=%v): encoder differs from reference", trial, p, len(s.occupied), s.slot != nil)
		}
		prefix := []byte("prefix")
		got, _ = s.AppendBinary(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("trial %d: appending after existing bytes changed the encoding", trial)
		}
		if m, _ := s.MarshalBinary(); !bytes.Equal(m, want) {
			t.Fatalf("trial %d: MarshalBinary differs from reference", trial)
		}
	}
	if modes[false] == 0 || modes[true] == 0 {
		t.Fatalf("random sketches covered only one index mode: %v", modes)
	}
}

// TestIndexModeTransitions pins when the slot map exists: never below the
// switch point, from the first cell past it (whether an insert, a merge
// or the decoder adds it) until Prune leaves at most half the switch
// point; clones keep their source's mode.
func TestIndexModeTransitions(t *testing.T) {
	dense := func(s *Sketch) bool { return s.slot != nil }
	s := withCells(denseAbove)
	if dense(s) {
		t.Fatalf("%d cells built a slot map", denseAbove)
	}
	if got := withCells(2).MemoryBytes(); got >= s.NumCells()*4 {
		t.Fatalf("a two-cell sketch retains %d bytes, not below the %d-byte slot map", got, s.NumCells()*4)
	}
	s.AddHash(goldenHash(9, 500, 1), 10) // cell 500: one past the switch point
	if !dense(s) {
		t.Fatalf("%d cells kept the sparse index", len(s.occupied))
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{denseAbove - 1, denseAbove, denseAbove + 1} {
		src := withCells(n)
		data, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Sketch
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if dense(&back) != (n > denseAbove) || dense(src.Clone()) != dense(src) {
			t.Fatalf("%d cells: decoded dense=%v, clone dense=%v, source dense=%v", n, dense(&back), dense(src.Clone()), dense(src))
		}
	}

	// A merge adds cells until the switch point, then builds the map; one
	// whose window admits nothing leaves the sketch as it was.
	small := withCells(2)
	if err := small.MergeWindow(s, -1<<40, 1); err != nil {
		t.Fatal(err)
	}
	if dense(small) || len(small.occupied) != 2 {
		t.Fatalf("an empty-window merge left %d cells, dense=%v", len(small.occupied), dense(small))
	}
	if err := small.Merge(s); err != nil {
		t.Fatal(err)
	}
	if !dense(small) || len(small.occupied) != denseAbove+1 {
		t.Fatalf("merging %d cells left %d cells, dense=%v", denseAbove+1, len(small.occupied), dense(small))
	}
	if err := small.CheckInvariant(); err != nil {
		t.Fatal(err)
	}

	// Prune keeps the map while more than half the switch point survives,
	// then drops it. withCells' cell 3c holds entries at 900−c and
	// 1000−c, so pruneTo(n) leaves exactly n cells.
	s = withCells(3 * denseAbove)
	pruneTo := func(n int) { s.Prune(0, int64(901-3*denseAbove+n)) }
	pruneTo(3 * denseAbove)
	if len(s.occupied) != 3*denseAbove || !dense(s) {
		t.Fatalf("a prune that kept every cell left %d cells, dense=%v", len(s.occupied), dense(s))
	}
	keep := denseAbove/2 + 1
	pruneTo(keep)
	if len(s.occupied) != keep || !dense(s) {
		t.Fatalf("after prune: %d cells, dense=%v; want %d, dense", len(s.occupied), dense(s), keep)
	}
	pruneTo(keep - 1)
	if len(s.occupied) != keep-1 || dense(s) {
		t.Fatalf("after prune: %d cells, dense=%v; want %d, sparse", len(s.occupied), dense(s), keep-1)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantCatchesIndexCorruption: each way the two index modes
// can disagree with the cells they index is reported.
func TestCheckInvariantCatchesIndexCorruption(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Sketch
	}{
		{"sparse index duplicate", func() *Sketch {
			s := withCells(5)
			s.occupied[2] = s.occupied[1]
			return s
		}},
		{"sparse index above the switch point", func() *Sketch {
			s := withCells(denseAbove + 1)
			s.slot = nil
			return s
		}},
		{"slot map points at the wrong region", func() *Sketch {
			s := withCells(denseAbove + 1)
			s.slot[s.occupied[0]], s.slot[s.occupied[1]] = s.slot[s.occupied[1]], s.slot[s.occupied[0]]
			return s
		}},
		{"slot map names an unpopulated cell", func() *Sketch {
			s := withCells(denseAbove + 1)
			s.slot[1] = 1
			return s
		}},
		{"slot map of the wrong size", func() *Sketch {
			s := withCells(denseAbove + 1)
			s.slot = s.slot[:len(s.slot)-1]
			return s
		}},
	}
	for _, c := range cases {
		if err := c.build().CheckInvariant(); err == nil {
			t.Errorf("%s: CheckInvariant passed", c.name)
		}
	}
}

// TestSwitchStreamsCrossTheSwitchPoint: the golden switch streams really
// do take their sketch across the switch point in both directions, so
// their identity check covers promotion and demotion.
func TestSwitchStreamsCrossTheSwitchPoint(t *testing.T) {
	defer func() { goldenStep = nil }()
	for _, gc := range switchCases {
		ups, downs, dense := 0, 0, false
		goldenStep = func(s *Sketch) {
			if now := s.slot != nil; now != dense {
				if now {
					ups++
				} else {
					downs++
				}
				dense = now
			}
		}
		runGoldenCase(t, gc)
		if ups < 5 || downs < 5 {
			t.Errorf("%s: %d promotions, %d demotions; want at least 5 of each", gc.Name, ups, downs)
		}
	}
}

// TestUnionMatchesCloneMerge: Union(a, b) encodes to the same bytes as
// a.Clone() followed by Merge(b) — across sparse, dense and mixed-mode
// pairs, pruned sources and disjoint or overlapping cells — keeps the
// layout invariants, is as tight as a clone, leaves both inputs
// untouched, and keeps doing so when the result is merged into again
// (its arena starts full).
func TestUnionMatchesCloneMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	random := func(p int) *Sketch {
		s := MustNew(p)
		items := []int{0, 1, 5, denseAbove, denseAbove + 1, 3 * denseAbove, 2000}[rng.Intn(7)]
		universe := 1 + rng.Intn(4*items+1)
		cur := int64(1 << 30)
		for i := 0; i < items; i++ {
			cur -= int64(rng.Intn(3))
			s.AddHash(hll.Hash64(uint64(rng.Intn(universe))), cur)
		}
		if items > 0 && rng.Intn(4) == 0 {
			s.Prune(cur, int64(1+rng.Intn(3*items+1)))
		}
		return s
	}
	for trial := 0; trial < 400; trial++ {
		p := []int{4, 6, 9, 9, 11}[rng.Intn(5)]
		a, b := random(p), random(p)
		aBytes, bBytes := referenceMarshal(a), referenceMarshal(b)
		want := a.Clone()
		if err := want.Merge(b); err != nil {
			t.Fatal(err)
		}
		got := Union(a, b)
		if err := got.CheckInvariant(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(referenceMarshal(got), referenceMarshal(want)) {
			t.Fatalf("trial %d (precision %d, %d ∪ %d entries): Union differs from Clone+Merge", trial, p, a.live, b.live)
		}
		if !bytes.Equal(referenceMarshal(a), aBytes) || !bytes.Equal(referenceMarshal(b), bBytes) {
			t.Fatalf("trial %d: Union mutated an input", trial)
		}
		if cap(got.arena) != got.live || cap(got.regs) != len(got.regs) || cap(got.occupied) != len(got.occupied) {
			t.Fatalf("trial %d: union not tight: arena %d/%d, %d/%d regions", trial, got.live, cap(got.arena), len(got.regs), cap(got.regs))
		}
		c := random(p)
		if err := got.Merge(c); err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(c); err != nil {
			t.Fatal(err)
		}
		if err := got.CheckInvariant(); err != nil {
			t.Fatalf("trial %d after a further merge: %v", trial, err)
		}
		if !bytes.Equal(referenceMarshal(got), referenceMarshal(want)) {
			t.Fatalf("trial %d: a merge into the union diverged", trial)
		}
	}
}

// TestCollapseIntoMatchesCollapseThenMerge holds each collapse-into form
// to its allocating form followed by Merge, into a union that already
// holds registers, on random sketches in both cell-index modes.
func TestCollapseIntoMatchesCollapseThenMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	modes := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		p := []int{4, 9, 9, 11}[rng.Intn(4)]
		s := MustNew(p)
		items := []int{1, 5, denseAbove, 3 * denseAbove, 2000}[rng.Intn(5)]
		cur := int64(1 << 20)
		for i := 0; i < items; i++ {
			cur -= int64(rng.Intn(3))
			s.AddHash(hll.Hash64(uint64(rng.Intn(4*items+1))), cur)
		}
		modes[s.slot != nil]++
		start := hll.MustNew(p)
		for i := rng.Intn(200); i > 0; i-- {
			start.Add(uint64(rng.Int63()))
		}
		t0, omega := cur+int64(rng.Intn(items+1)), int64(1+rng.Intn(2*items+1))
		forms := []struct {
			name     string
			into     func(*hll.Sketch)
			collapse func() *hll.Sketch
		}{
			{"Collapse", s.CollapseInto, s.Collapse},
			{"CollapseBefore", func(u *hll.Sketch) { s.CollapseBeforeInto(u, t0) }, func() *hll.Sketch { return s.CollapseBefore(t0) }},
			{"CollapseWindow", func(u *hll.Sketch) { s.CollapseWindowInto(u, t0, omega) }, func() *hll.Sketch { return s.CollapseWindow(t0, omega) }},
		}
		for _, f := range forms {
			got, want := start.Clone(), start.Clone()
			f.into(got)
			if err := want.Merge(f.collapse()); err != nil {
				t.Fatal(err)
			}
			gb, _ := got.MarshalBinary()
			wb, _ := want.MarshalBinary()
			if !bytes.Equal(gb, wb) {
				t.Fatalf("trial %d p=%d: %sInto differs from %s then Merge", trial, p, f.name, f.name)
			}
		}
	}
	if modes[false] == 0 || modes[true] == 0 {
		t.Fatalf("index modes covered: sparse %d, dense %d", modes[false], modes[true])
	}
}

func TestCollapseIntoPrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CollapseInto across precisions did not panic")
		}
	}()
	withCells(3).CollapseInto(hll.MustNew(10))
}
