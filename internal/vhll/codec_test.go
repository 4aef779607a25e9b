package vhll

import (
	"math/rand"
	"testing"

	"ipin/internal/hll"
)

func TestSketchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := MustNew(7)
	cur := int64(1 << 30)
	for i := 0; i < 2000; i++ {
		cur -= int64(rng.Intn(5))
		s.AddHash(hll.Hash64(uint64(rng.Intn(500))), cur)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Precision() != s.Precision() || got.EntryCount() != s.EntryCount() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := 0; i < s.NumCells(); i++ {
		a, b := s.Cell(i), got.Cell(i)
		if len(a) != len(b) {
			t.Fatalf("cell %d length %d != %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("cell %d entry %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed across round trip")
	}
	if got.EstimateWindow(cur, 1000) != s.EstimateWindow(cur, 1000) {
		t.Fatal("windowed estimate changed across round trip")
	}
}

func TestSketchRoundTripNegativeTimes(t *testing.T) {
	// The sliding-window adapter stores negated timestamps; the varint
	// encoding must handle them.
	s := MustNew(5)
	s.AddHash(hll.Hash64(1), -100)
	s.AddHash(hll.Hash64(2), -200)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil accepted")
	}
	if err := s.UnmarshalBinary([]byte("WRONGMAGIC")); err == nil {
		t.Error("bad magic accepted")
	}
	if err := s.UnmarshalBinary([]byte{'V', 'H', 'L', '1', 99}); err == nil {
		t.Error("bad precision accepted")
	}
	// Valid header but truncated body.
	src := MustNew(5)
	src.AddHash(hll.Hash64(7), 50)
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Error("truncated body accepted")
	}
	if err := s.UnmarshalBinary(append(data, 0xAB)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnmarshalRejectsInvariantViolations(t *testing.T) {
	// Hand-craft a payload whose cell breaks the staircase (descending
	// rank): magic, precision 4, cell 0 with two entries, rest empty.
	payload := []byte{'V', 'H', 'L', '1', 4,
		2,    // cell 0: two entries
		2, 9, // entry (t=1 zigzag→2? varint(1)=0x02) rank 9
		2, 3, // entry (t=2) rank 3 < 9: violates strict ascent
	}
	for i := 0; i < 15; i++ {
		payload = append(payload, 0) // 15 empty cells
	}
	var s Sketch
	if err := s.UnmarshalBinary(payload); err == nil {
		t.Fatal("staircase violation accepted")
	}
}

// rankPayload hand-builds a VHL1 payload at precision 4 whose cell 0
// holds one entry (t = 1) of the given rank, every other cell empty.
func rankPayload(rank uint8) []byte {
	payload := []byte{'V', 'H', 'L', '1', 4, 1, 2, rank}
	return append(payload, make([]byte, 15)...)
}

// TestUnmarshalRejectsImpossibleRanks: an entry rank outside [1, 65−p],
// which no hash produces, is an error; the register kernel sketches
// collapse into relies on every rank staying below 128.
func TestUnmarshalRejectsImpossibleRanks(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(rankPayload(61)); err != nil {
		t.Fatalf("rank 61 at precision 4 (the cap) rejected: %v", err)
	}
	if got := s.Cell(0); len(got) != 1 || got[0] != (Entry{At: 1, Rank: 61}) {
		t.Fatalf("decoded cell 0 = %v", got)
	}
	for _, rank := range []uint8{0, 62, 127, 128, 255} {
		if err := s.UnmarshalBinary(rankPayload(rank)); err == nil {
			t.Errorf("rank %d at precision 4 accepted", rank)
		}
	}
}
