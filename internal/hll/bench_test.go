package hll

import "testing"

func BenchmarkAdd(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := MustNew(9)
	for i := 0; i < 100000; i++ {
		s.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEstimate = s.Estimate()
	}
}

// BenchmarkMerge merges into one reused target, as a query's union does.
// The word-wise maximum does the same work whether or not the target has
// already absorbed the source, so a saturated target times the same.
func BenchmarkMerge(b *testing.B) {
	x, y := MustNew(9), MustNew(9)
	for i := 0; i < 50000; i++ {
		x.Add(uint64(i))
		y.Add(uint64(i + 25000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Merge(y)
	}
}

// BenchmarkEstimateMerged is one marginal-gain evaluation of greedy
// selection: the estimate of a running union merged with one node's
// sketch, writing neither.
func BenchmarkEstimateMerged(b *testing.B) {
	x, y := MustNew(9), MustNew(9)
	for i := 0; i < 50000; i++ {
		x.Add(uint64(i))
		y.Add(uint64(i + 25000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEstimate = x.EstimateMerged(y)
	}
}

func BenchmarkHash64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Hash64(uint64(i))
	}
	benchSink = acc
}

var (
	benchSink     uint64
	benchEstimate float64
)
