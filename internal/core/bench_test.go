package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ipin/internal/gen"
	"ipin/internal/graph"
)

// benchLog builds a reproducible 50k-interaction network once.
var benchLog = func() *graph.Log {
	rng := rand.New(rand.NewSource(1))
	l := graph.New(5000)
	for i := 0; i < 50000; i++ {
		l.Add(graph.NodeID(rng.Intn(5000)), graph.NodeID(rng.Intn(5000)), graph.Time(i+1))
	}
	l.Sort()
	return l
}()

func BenchmarkComputeExact(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ComputeExact(benchLog, 5000)
	}
}

func BenchmarkComputeApprox(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeApprox(benchLog, 5000, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeApproxWindow is the streaming benchmark's offline
// window scan: a uniform stream over 5,000 nodes, about four ticks per
// edge, 65,536 edges and ω = 32,768 ticks. Its sketches grow from a few
// cells to dense during the scan, so it covers both cell-index modes and
// the switch between them.
func BenchmarkComputeApproxWindow(b *testing.B) {
	l, err := gen.Generate(gen.Config{
		Name: "window", Model: gen.ModelUniform, Nodes: 5000,
		Interactions: 1 << 16, SpanTicks: 4 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	l.Detie()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeApprox(l, 32768, DefaultPrecision); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldTail is a mid-interval publish on the streaming
// benchmark's shape: BenchmarkComputeApproxWindow's 5,000-node uniform
// stream sealed as four 16,384-edge chunks with a warm fold cache, and
// an unsealed tail of 512, 4,096 or 16,384 edges folded against it.
func BenchmarkFoldTail(b *testing.B) {
	const sealed = 4 << 14
	l, err := gen.Generate(gen.Config{
		Name: "window", Model: gen.ModelUniform, Nodes: 5000,
		Interactions: sealed + 1<<14, SpanTicks: 4 * (sealed + 1<<14), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	l.Detie()
	inc, err := NewIncrementalApprox(32768, DefaultPrecision, l.NumNodes)
	if err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < sealed; lo += 1 << 14 {
		if err := inc.AppendChunk(l.Interactions[lo:lo+1<<14], l.NumNodes); err != nil {
			b.Fatal(err)
		}
	}
	view := inc.View()
	_ = view.Fold() // warm the cache, as the previous checkpoint would
	for _, n := range []int{512, 4096, 1 << 14} {
		tail := l.Interactions[sealed : sealed+n]
		b.Run(fmt.Sprintf("tail=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := view.FoldTail(tail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOracleSpread100(b *testing.B) {
	s, err := ComputeApprox(benchLog, 5000, 9)
	if err != nil {
		b.Fatal(err)
	}
	oracle := NewApproxOracle(s)
	seeds := make([]graph.NodeID, 100)
	for i := range seeds {
		seeds[i] = graph.NodeID(i * 37 % benchLog.NumNodes)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oracle.Spread(seeds)
	}
}

func BenchmarkTopKApprox50(b *testing.B) {
	s, err := ComputeApprox(benchLog, 5000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopKApproxSeeds(s, 50)
	}
}

func BenchmarkTopKApproxCELF50(b *testing.B) {
	s, err := ComputeApprox(benchLog, 5000, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopKApproxCELF(s, 50)
	}
}
