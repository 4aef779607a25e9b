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

// exactShape is one input of BenchmarkExactPipeline.
type exactShape struct {
	name  string
	log   *graph.Log
	omega int64
}

// exactShapes are the benchmark's two exact-pipeline inputs: one log of
// the batch workload (the enron model at scale 100, ω = 10% of its span)
// and the streaming workloads' offline window (5,000 nodes, 65,536
// uniform edges, ω = 32,768 ticks).
func exactShapes(b *testing.B) []exactShape {
	batch := enronLog(b, 100, 1)
	window, err := gen.Generate(gen.Config{
		Name: "window", Model: gen.ModelUniform, Nodes: 5000,
		Interactions: 1 << 16, SpanTicks: 4 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	window.Detie()
	return []exactShape{
		{name: "batch", log: batch, omega: batch.WindowFromPercent(10)},
		{name: "window", log: window, omega: 32768},
	}
}

// enronLog generates one enron-model log at the given scale, with
// distinct timestamps.
func enronLog(b *testing.B, scale int, seed uint64) *graph.Log {
	cfg, err := gen.Dataset("enron", scale)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = seed
	l, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !l.HasDistinctTimes() {
		l.Detie()
	}
	return l
}

// spreadBattery draws n seed sets of 1–10 nodes below nodes.
func spreadBattery(rng *rand.Rand, nodes, n int) [][]graph.NodeID {
	out := make([][]graph.NodeID, n)
	for i := range out {
		out[i] = make([]graph.NodeID, 1+rng.Intn(10))
		for j := range out[i] {
			out[i][j] = graph.NodeID(rng.Intn(nodes))
		}
	}
	return out
}

// BenchmarkExactPipeline times the exact pipeline's three parts on each
// shape: the sequential scan, greedy top-10, and an oracle built and
// queried with 400 random seed sets.
func BenchmarkExactPipeline(b *testing.B) {
	for _, sh := range exactShapes(b) {
		s := ComputeExact(sh.log, sh.omega)
		battery := spreadBattery(rand.New(rand.NewSource(1)), sh.log.NumNodes, 400)
		b.Run(sh.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ComputeExact(sh.log, sh.omega)
			}
		})
		b.Run(sh.name+"/topk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = TopKExact(s, 10)
			}
		})
		b.Run(sh.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := NewExactOracle(s)
				for _, seeds := range battery {
					_ = o.Spread(seeds)
				}
			}
		})
	}
}

// BenchmarkSliceFloor is the sweep behind minParallelEdges: the
// time-sliced scans on two workers against the one-pass scans, on
// enron-model logs at ω = 10% of the span whose sizes straddle the
// floor (scale 6400 is about 180 edges, scale 100 about 11,500).
func BenchmarkSliceFloor(b *testing.B) {
	for _, scale := range []int{6400, 3200, 1600, 800, 400, 200, 100} {
		l := enronLog(b, scale, 1)
		omega := l.WindowFromPercent(10)
		name := fmt.Sprintf("edges=%d", l.Len())
		b.Run(name+"/exact/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ComputeExact(l, omega)
			}
		})
		b.Run(name+"/exact/workers=2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = computeExactSliced(l, omega, 2)
			}
		})
		b.Run(name+"/approx/workers=1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ComputeApprox(l, omega, DefaultPrecision); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/approx/workers=2", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = computeApproxSliced(l, omega, DefaultPrecision, 2)
			}
		})
	}
}
