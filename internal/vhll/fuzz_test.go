package vhll

import (
	"testing"

	"ipin/internal/hll"
)

// FuzzUnmarshalBinary: arbitrary bytes either fail cleanly or decode to a
// sketch whose invariants hold and which re-encodes losslessly.
func FuzzUnmarshalBinary(f *testing.F) {
	// Seed with a few valid encodings.
	for _, n := range []int{0, 3, 50} {
		s := MustNew(4)
		cur := int64(1000)
		for i := 0; i < n; i++ {
			cur--
			s.AddHash(hll.Hash64(uint64(i)), cur)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Arena-shaped edge cases: the flat layout's interesting boundaries
	// are long empty-cell runs, one cell holding a maximal staircase, and
	// runs of rank-capped entries.
	{
		// Single full cell: ascending time + ascending rank never
		// dominates, building the longest legal staircase (ranks
		// 1..64−p+1), with every other cell empty.
		s := MustNew(4)
		for r := 1; r <= 61; r++ {
			s.AddHash(goldenHash(4, 7, uint8(r)), int64(r))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	{
		// Max-rank runs: several cells pinned at the rank cap.
		s := MustNew(4)
		for c := uint32(0); c < 16; c += 2 {
			s.AddHash(goldenHash(4, c, 61), int64(100-c))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hostile cell count just above the staircase maximum: must be
	// rejected before the decoder materializes it.
	f.Add(append([]byte{'V', 'H', 'L', '1', 4}, 0x81, 0x02)) // cell 0 count = 257
	f.Add([]byte("VHL1"))
	f.Add([]byte{})
	// Populations around the cell-index switch point: the decoder builds
	// the sparse index for the first two and the slot map for the third.
	for _, n := range []int{denseAbove - 1, denseAbove, denseAbove + 1} {
		data, err := withCells(n).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		if err := s.CheckInvariant(); err != nil {
			t.Fatalf("accepted payload violates invariant: %v", err)
		}
		// Lossless re-encode.
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var s2 Sketch
		if err := s2.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if s2.Estimate() != s.Estimate() {
			t.Fatal("estimate changed across re-encode")
		}
	})
}
