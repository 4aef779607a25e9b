package vhll

import (
	"testing"

	"ipin/internal/hll"
)

func BenchmarkAddReverseStream(b *testing.B) {
	s := MustNew(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Reverse-chronological arrival, 64k distinct items.
		s.AddHash(hll.Hash64(uint64(i%65536)), int64(1<<40-i))
	}
}

func BenchmarkMergeWindow(b *testing.B) {
	src := MustNew(9)
	for i := 0; i < 4096; i++ {
		src.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	dst := MustNew(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.MergeWindow(src, 900000, 80000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddHashBatch(b *testing.B) {
	s := MustNew(9)
	const batch = 256
	hashes := make([]uint64, batch)
	ats := make([]int64, batch)
	for i := range hashes {
		hashes[i] = hll.Hash64(uint64(i % 65536))
	}
	at := int64(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range ats {
			at--
			ats[j] = at
		}
		s.AddHashBatch(hashes, ats)
	}
}

func BenchmarkMerge(b *testing.B) {
	// Steady-state union: dst has already adopted src's content, so every
	// iteration re-merges in place — the shape of the incremental fold's
	// repeated block stitching.
	src := MustNew(9)
	for i := 0; i < 4096; i++ {
		src.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	dst := MustNew(9)
	if err := dst.Merge(src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateWindow(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.EstimateWindow(900000, 50000)
	}
}

func BenchmarkCollapse(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Collapse()
	}
}

// The sparse regime: the live pipeline's chunk-local and delta sketches
// hold a few dozen entries each, so per-sketch costs (construction,
// cloning, encoding) rather than per-entry ones dominate there.

func BenchmarkAddFresh(b *testing.B) {
	// A new sketch every 16 items, as a chunk-local sketch sees a node's
	// handful of out-edges.
	var s *Sketch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			s = MustNew(9)
		}
		s.AddHash(hll.Hash64(uint64(i)), int64(1<<40-i))
	}
}

func BenchmarkCloneSparse(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 8; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000-i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

// benchAppendBinary encodes a sketch of n distinct items into one reused
// buffer, the way the checkpoint and sidecar writers do.
func benchAppendBinary(b *testing.B, n int) {
	s := MustNew(9)
	for i := 0; i < n; i++ {
		s.AddHash(hll.Hash64(uint64(i)), int64(1000000-i))
	}
	buf, err := s.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = s.AppendBinary(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBinarySparse(b *testing.B) { benchAppendBinary(b, 20) }

func BenchmarkAppendBinaryDense(b *testing.B) { benchAppendBinary(b, 4096) }
