package vhll

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"ipin/internal/hll"
)

// mkHash builds a hash that lands in the given cell with the given rank
// under precision p (rank must be ≤ 64−p).
func mkHash(p int, cell uint32, rank uint8) uint64 {
	h := uint64(cell) << (64 - p)
	h |= uint64(1) << (64 - int(rank) - p)
	// Sanity-check the construction against the real splitter.
	c, r := hll.Split(h, p)
	if c != cell || r != rank {
		panic("mkHash construction broken")
	}
	return h
}

const testPrecision = 4

// addCR inserts an item with a crafted (cell, rank) at time t.
func addCR(s *Sketch, cell uint32, rank uint8, t int64) {
	s.AddHash(mkHash(testPrecision, cell, rank), t)
}

// cellOf reads the staircase of one cell.
func cellOf(s *Sketch, cell int) []Entry { return s.Cell(cell) }

// TestPaperExample3 replays the paper's Example 3: items with
// (ι, ρ) = a:(1,3) b:(3,1) c:(3,2) d:(2,2) e:(2,1), processed in reverse
// order (a,t6),(b,t5),(a,t4),(c,t3),(d,t2),(e,t1).
func TestPaperExample3(t *testing.T) {
	s := MustNew(testPrecision)
	addCR(s, 1, 3, 6) // (a, t6)
	addCR(s, 3, 1, 5) // (b, t5)
	addCR(s, 1, 3, 4) // (a, t4): dominates and replaces (3, t6)
	if got, want := cellOf(s, 1), []Entry{{At: 4, Rank: 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 1 after (a,t4) = %v, want %v", got, want)
	}
	addCR(s, 3, 2, 3) // (c, t3): dominates and replaces (1, t5)
	if got, want := cellOf(s, 3), []Entry{{At: 3, Rank: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 3 after (c,t3) = %v, want %v", got, want)
	}
	addCR(s, 2, 2, 2) // (d, t2)
	addCR(s, 2, 1, 1) // (e, t1): kept alongside (2, t2)
	if got, want := cellOf(s, 2), []Entry{{At: 1, Rank: 1}, {At: 2, Rank: 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 2 final = %v, want %v", got, want)
	}
	if got := cellOf(s, 0); len(got) != 0 {
		t.Fatalf("cell 0 = %v, want empty", got)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExample4 replays the merge of the paper's Example 4.
func TestPaperExample4(t *testing.T) {
	a := MustNew(testPrecision)
	addCR(a, 1, 3, 4)
	addCR(a, 2, 2, 2)
	addCR(a, 2, 1, 1)
	addCR(a, 3, 2, 3)

	b := MustNew(testPrecision)
	addCR(b, 0, 5, 1)
	addCR(b, 1, 3, 2)
	addCR(b, 2, 4, 3)
	addCR(b, 3, 1, 4)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := [][]Entry{
		{{At: 1, Rank: 5}},
		{{At: 2, Rank: 3}}, // (3,t2) dominates (3,t4)
		{{At: 1, Rank: 1}, {At: 2, Rank: 2}, {At: 3, Rank: 4}},
		{{At: 3, Rank: 2}}, // (2,t3) dominates (1,t4)
	}
	for i, w := range want {
		if got := cellOf(a, i); !reflect.DeepEqual(got, w) {
			t.Errorf("cell %d = %v, want %v", i, got, w)
		}
	}
	if err := a.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDominatedInsertIsIgnored(t *testing.T) {
	s := MustNew(testPrecision)
	addCR(s, 0, 4, 5)
	addCR(s, 0, 3, 7) // later time, smaller rank → dominated
	if got, want := cellOf(s, 0), []Entry{{At: 5, Rank: 4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 0 = %v, want %v", got, want)
	}
}

func TestEqualTimeKeepsMaxRank(t *testing.T) {
	s := MustNew(testPrecision)
	addCR(s, 0, 2, 5)
	addCR(s, 0, 6, 5) // same timestamp, larger rank replaces
	if got, want := cellOf(s, 0), []Entry{{At: 5, Rank: 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 0 = %v, want %v", got, want)
	}
	addCR(s, 0, 3, 5) // same timestamp, smaller rank ignored
	if got, want := cellOf(s, 0), []Entry{{At: 5, Rank: 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cell 0 = %v, want %v", got, want)
	}
}

func TestEstimateWindowBounds(t *testing.T) {
	s := MustNew(9)
	// 100 distinct items at times 1000..901 (reverse ingestion).
	for i := 0; i < 100; i++ {
		s.Add(uint64(i), int64(1000-i))
	}
	// Window covering everything.
	if est := s.EstimateWindow(901, 100); est < 80 || est > 120 {
		t.Errorf("full-window estimate %.1f for 100 items", est)
	}
	// Window covering nothing.
	if est := s.EstimateWindow(1, 10); est != 0 {
		t.Errorf("empty-window estimate %.1f, want 0", est)
	}
	// Half window [951, 1000] holds the first 50 ingested items.
	if est := s.EstimateWindow(951, 50); est < 35 || est > 65 {
		t.Errorf("half-window estimate %.1f for 50 items", est)
	}
}

func TestEstimateMatchesCollapse(t *testing.T) {
	s := MustNew(9)
	for i := 0; i < 1000; i++ {
		s.Add(uint64(i), int64(100000-i))
	}
	if a, b := s.Estimate(), s.Collapse().Estimate(); a != b {
		t.Fatalf("Estimate %.3f != Collapse().Estimate %.3f", a, b)
	}
}

func TestCollapseWindowMatchesEstimateWindow(t *testing.T) {
	s := MustNew(9)
	for i := 0; i < 500; i++ {
		s.Add(uint64(i), int64(5000-3*i))
	}
	for _, w := range []struct{ t, omega int64 }{{4000, 500}, {3500, 1501}, {3500, 10}} {
		if a, b := s.EstimateWindow(w.t, w.omega), s.CollapseWindow(w.t, w.omega).Estimate(); a != b {
			t.Fatalf("window (%d,%d): EstimateWindow %.3f != CollapseWindow %.3f", w.t, w.omega, a, b)
		}
	}
}

func TestPrune(t *testing.T) {
	s := MustNew(testPrecision)
	addCR(s, 0, 5, 100)
	addCR(s, 0, 3, 50)
	addCR(s, 0, 1, 10)
	// Anchor 10, window 50: entries after 59 can never matter again.
	s.Prune(10, 50)
	got := cellOf(s, 0)
	if len(got) != 2 || got[0].At != 10 || got[1].At != 50 {
		t.Fatalf("after prune: %v", got)
	}
	// A window entirely in the pruned region is empty now.
	if est := s.EstimateWindow(90, 20); est != 0 {
		t.Errorf("pruned-region estimate %.3f, want 0", est)
	}
}

func TestMergeWindowFiltersByDuration(t *testing.T) {
	a := MustNew(testPrecision)
	b := MustNew(testPrecision)
	addCR(b, 0, 2, 100)
	addCR(b, 1, 3, 104)
	addCR(b, 2, 4, 110)
	// Anchor t=100, ω=5: keep entries with At−100 < 5, i.e. at 100 and 104.
	if err := a.MergeWindow(b, 100, 5); err != nil {
		t.Fatal(err)
	}
	if got := cellOf(a, 0); len(got) != 1 {
		t.Errorf("cell 0 = %v, want 1 entry", got)
	}
	if got := cellOf(a, 1); len(got) != 1 {
		t.Errorf("cell 1 = %v, want 1 entry", got)
	}
	if got := cellOf(a, 2); len(got) != 0 {
		t.Errorf("cell 2 = %v, want empty (outside window)", got)
	}
}

func TestPrecisionMismatch(t *testing.T) {
	if err := MustNew(5).Merge(MustNew(6)); err == nil {
		t.Error("Merge precision mismatch not rejected")
	}
	if err := MustNew(5).MergeWindow(MustNew(6), 0, 10); err == nil {
		t.Error("MergeWindow precision mismatch not rejected")
	}
	if _, err := New(1); err == nil {
		t.Error("precision below minimum accepted")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := MustNew(testPrecision)
	addCR(a, 0, 3, 10)
	c := a.Clone()
	addCR(c, 0, 1, 5)
	if len(cellOf(a, 0)) != 1 {
		t.Fatal("clone shares cell storage")
	}
	if len(cellOf(c, 0)) != 2 {
		t.Fatal("clone did not accept new entry")
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := MustNew(testPrecision)
	if s.PayloadBytes() != 0 || s.EntryCount() != 0 {
		t.Fatal("empty sketch reports payload")
	}
	// An empty sketch still retains its struct — MemoryBytes is truthful
	// about that, and PayloadBytes is not allowed to count it. It has no
	// slot map: that only exists past the switch point.
	if got, floor := s.MemoryBytes(), int(unsafe.Sizeof(*s)); got < floor || got >= floor+s.NumCells()*4 {
		t.Fatalf("empty MemoryBytes = %d, want the %d-byte struct and no slot map", got, floor)
	}
	addCR(s, 0, 1, 10)
	addCR(s, 1, 2, 9)
	if got := s.EntryCount(); got != 2 {
		t.Fatalf("EntryCount = %d, want 2", got)
	}
	if got := s.PayloadBytes(); got != 2*EntryBytes {
		t.Fatalf("PayloadBytes = %d, want %d", got, 2*EntryBytes)
	}
	// Retained bytes must cover at least what the live entries occupy.
	if got := s.MemoryBytes(); got < int(unsafe.Sizeof(*s))+2*16 {
		t.Fatalf("MemoryBytes = %d does not cover retained state", got)
	}
}

// naiveVHLL retains every (cell, rank, time) triple and computes windowed
// registers by full scan — the reference the real sketch must match
// exactly for admissible queries (anchor ≤ every inserted timestamp).
type naiveVHLL struct {
	precision int
	triples   []struct {
		cell uint32
		rank uint8
		at   int64
	}
}

func (n *naiveVHLL) add(hash uint64, t int64) {
	c, r := hll.Split(hash, n.precision)
	n.triples = append(n.triples, struct {
		cell uint32
		rank uint8
		at   int64
	}{c, r, t})
}

func (n *naiveVHLL) estimateWindow(t, omega int64) float64 {
	regs := hll.MustNew(n.precision)
	hi := t + omega - 1
	for _, tr := range n.triples {
		if tr.at >= t && tr.at <= hi {
			regs.SetRegister(tr.cell, tr.rank)
		}
	}
	return regs.Estimate()
}

// TestWindowEstimateMatchesNaive drives random reverse-ordered streams
// into both implementations and checks exact agreement on every
// admissible window query. This is the dominance-is-lossless property the
// design relies on.
func TestWindowEstimateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		p := 4 + rng.Intn(3)
		s := MustNew(p)
		naive := &naiveVHLL{precision: p}
		cur := int64(1000000)
		for i := 0; i < 300; i++ {
			cur -= int64(1 + rng.Intn(5))
			h := hll.Hash64(uint64(rng.Intn(200)))
			s.AddHash(h, cur)
			naive.add(h, cur)
		}
		if err := s.CheckInvariant(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 40; q++ {
			anchor := cur - int64(rng.Intn(10)) // anchor ≤ min time: admissible
			omega := int64(1 + rng.Intn(2000))
			got := s.EstimateWindow(anchor, omega)
			want := naive.estimateWindow(anchor, omega)
			if got != want {
				t.Fatalf("trial %d query (t=%d, ω=%d): got %.6f, want %.6f", trial, anchor, omega, got, want)
			}
		}
	}
}

// TestEstimateBeforeMatchesNaive: prefix (deadline) queries must agree
// exactly with the keep-everything reference for ANY deadline — the
// dominance rule is lossless for prefixes regardless of the anchor.
func TestEstimateBeforeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		p := 4 + rng.Intn(3)
		s := MustNew(p)
		naive := &naiveVHLL{precision: p}
		cur := int64(500000)
		for i := 0; i < 250; i++ {
			cur -= int64(1 + rng.Intn(6))
			h := hll.Hash64(uint64(rng.Intn(150)))
			s.AddHash(h, cur)
			naive.add(h, cur)
		}
		for q := 0; q < 40; q++ {
			deadline := cur + int64(rng.Intn(2500))
			got := s.EstimateBefore(deadline)
			// The naive window [minInt, deadline] is the same prefix.
			want := naive.estimateWindow(deadline-1<<40, 1<<40+1)
			if got != want {
				t.Fatalf("trial %d deadline %d: got %.6f, want %.6f", trial, deadline, got, want)
			}
			if a, b := s.CollapseBefore(deadline).Estimate(), got; a != b {
				t.Fatalf("CollapseBefore %.6f != EstimateBefore %.6f", a, b)
			}
		}
	}
}

// TestMergeMatchesInterleaved checks that merging two sketches equals
// building one sketch from the interleaved stream, for reverse-ordered
// inputs (merge processes entries out of time order internally, which is
// exactly what the staircase insert must tolerate).
func TestMergeMatchesInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := MustNew(5)
		b := MustNew(5)
		both := MustNew(5)
		cur := int64(100000)
		for i := 0; i < 200; i++ {
			cur -= int64(1 + rng.Intn(4))
			h := hll.Hash64(uint64(rng.Intn(100)))
			if rng.Intn(2) == 0 {
				a.AddHash(h, cur)
			} else {
				b.AddHash(h, cur)
			}
			both.AddHash(h, cur)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInvariant(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Windowed estimates agree on admissible anchors.
		for q := 0; q < 20; q++ {
			omega := int64(1 + rng.Intn(5000))
			got := a.EstimateWindow(cur, omega)
			want := both.EstimateWindow(cur, omega)
			if got != want {
				t.Fatalf("trial %d ω=%d: merged %.6f != interleaved %.6f", trial, omega, got, want)
			}
		}
	}
}
