package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// BenchmarkOracleSpread times approx Spread queries on exactShapes: a
// battery of 400 sets of 1–10 seeds, the batch workload's query mix, and
// 400 sets of 32 seeds. One op is one query.
func BenchmarkOracleSpread(b *testing.B) {
	for _, sh := range exactShapes(b) {
		s, err := ComputeApprox(sh.log, sh.omega, DefaultPrecision)
		if err != nil {
			b.Fatal(err)
		}
		oracle := NewApproxOracle(s)
		rng := rand.New(rand.NewSource(1))
		wide := make([][]graph.NodeID, 400)
		for i := range wide {
			wide[i] = make([]graph.NodeID, 32)
			for j := range wide[i] {
				wide[i][j] = graph.NodeID(rng.Intn(sh.log.NumNodes))
			}
		}
		for name, sets := range map[string][][]graph.NodeID{
			"seeds=1-10": spreadBattery(rng, sh.log.NumNodes, 400),
			"seeds=32":   wide,
		} {
			b.Run(sh.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSpread = oracle.Spread(sets[i%len(sets)])
				}
			})
		}
	}
}

var benchSpread float64

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
func exactShapes(b testing.TB) []exactShape {
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
func enronLog(b testing.TB, scale int, seed uint64) *graph.Log {
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

// uniformLog generates the uniform stream the CI perf gates run on:
// edges interactions over nodes nodes, four ticks per edge, seed 1.
func uniformLog(b *testing.B, nodes, edges int) *graph.Log {
	l, err := gen.Generate(gen.Config{
		Name: "uniform", Model: gen.ModelUniform, Nodes: nodes,
		Interactions: edges, SpanTicks: 4 * int64(edges), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkApproxScanRate is the sequential approx scan on 50,000
// uniform edges over 4,000 nodes, ω = 1% of the span, reported as
// edges/s. CI's perf job holds it at 100,000 edges/s or more, more than
// ten times under what one core sustains, so only a real regression
// trips it.
func BenchmarkApproxScanRate(b *testing.B) {
	l := uniformLog(b, 4000, 50_000)
	omega := l.WindowFromPercent(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeApprox(l, omega, DefaultPrecision); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(l.Len())/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkFoldSpeedup times a checkpoint fold with a warm cache against
// the same fold from scratch. The stream is sealed in 16,384-edge chunks
// with ω = 1% of the span; the warm fold finds every chunk but the last
// in the cache, as a steady-state checkpoint does. Each iteration
// builds both states untimed and folds each once, and the benchmark
// reports full over incremental fold time as speedup. The shapes are the
// uniform streams of CI's stream job (80,000 edges over 5,000 nodes),
// where a full fold takes tens of milliseconds and CI's perf job asks
// only 0.5, and of the recorded long run (500,000 edges over 20,000
// nodes), where it asks 5.
func BenchmarkFoldSpeedup(b *testing.B) {
	const chunk = 1 << 14
	for _, sh := range []struct{ nodes, edges int }{{5000, 80_000}, {20_000, 500_000}} {
		b.Run(fmt.Sprintf("edges=%d", sh.edges), func(b *testing.B) {
			l := uniformLog(b, sh.nodes, sh.edges)
			l.Detie()
			omega := l.WindowFromPercent(1)
			last := (l.Len() - 1) / chunk * chunk // first edge of the final chunk
			sealed := func(upto int) *IncrementalApprox {
				inc, err := NewIncrementalApprox(omega, DefaultPrecision, l.NumNodes)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < upto; lo += chunk {
					if err := inc.AppendChunk(l.Interactions[lo:min(lo+chunk, upto)], l.NumNodes); err != nil {
						b.Fatal(err)
					}
				}
				return inc
			}
			var incremental, full time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				warm := sealed(last)
				warm.View().Fold()
				if err := warm.AppendChunk(l.Interactions[last:], l.NumNodes); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				warm.View().Fold()
				incremental += time.Since(start)
				b.StopTimer()
				cold := sealed(l.Len())
				b.StartTimer()
				start = time.Now()
				cold.View().Fold()
				full += time.Since(start)
			}
			b.ReportMetric(float64(full)/float64(incremental), "speedup")
		})
	}
}

// BenchmarkParallelSites times every parallel site left in the package
// at one worker and at two, on exactShapes: the approx oracle's collapse,
// approx top-10 on a built oracle (its size estimates),
// the exact oracle's index fill, the union of two summary sets split
// two ways, and three folds of the log sealed as four equal chunks with
// the rest as an unsealed tail: cold with no cache, warm with a cache
// over the first three chunks, and of the tail against a cache over all
// four.
// The one- and two-worker pairs are the evidence that each site pays on
// two cores.
func BenchmarkParallelSites(b *testing.B) {
	defer SetParallelism(0)
	for _, sh := range exactShapes(b) {
		approx, err := ComputeApprox(sh.log, sh.omega, DefaultPrecision)
		if err != nil {
			b.Fatal(err)
		}
		oracle := NewApproxOracle(approx)
		exact := ComputeExact(sh.log, sh.omega)
		edges, chunk := sh.log.Interactions, sh.log.Len()/5
		// Two ways to split the log into the parts of a union: by source
		// parity, as the cluster routes edges to shards, so every node's
		// sketch lives in one part and the union shares it; and at the
		// middle edge in time, so a node active in both halves has a
		// sketch in each and the union merges them.
		var shards, halves [2]*ApproxSummaries
		for i := range shards {
			l := graph.New(sh.log.NumNodes)
			for _, e := range edges {
				if int(e.Src)%2 == i {
					l.Interactions = append(l.Interactions, e)
				}
			}
			if shards[i], err = ComputeApprox(l, sh.omega, DefaultPrecision); err != nil {
				b.Fatal(err)
			}
			l = graph.New(sh.log.NumNodes)
			l.Interactions = edges[i*len(edges)/2 : (i+1)*len(edges)/2]
			if halves[i], err = ComputeApprox(l, sh.omega, DefaultPrecision); err != nil {
				b.Fatal(err)
			}
		}
		sealed := func(chunks int) *IncrementalApprox {
			inc, err := NewIncrementalApprox(sh.omega, DefaultPrecision, sh.log.NumNodes)
			if err != nil {
				b.Fatal(err)
			}
			for c := 0; c < chunks; c++ {
				if err := inc.AppendChunk(edges[c*chunk:(c+1)*chunk], sh.log.NumNodes); err != nil {
					b.Fatal(err)
				}
			}
			return inc
		}
		cold := sealed(4).View()
		warmInc := sealed(3)
		warmInc.View().Fold()
		if err := warmInc.AppendChunk(edges[3*chunk:4*chunk], sh.log.NumNodes); err != nil {
			b.Fatal(err)
		}
		warm := warmInc.View()
		full := sealed(4).View()
		full.Fold()
		tail := edges[4*chunk:]
		sites := []struct {
			name string
			run  func() error
		}{
			{"collapse", func() error { NewApproxOracle(approx); return nil }},
			{"topk-approx", func() error { oracle.TopK(10); return nil }},
			{"exact-index", func() error { NewExactOracle(exact); return nil }},
			{"union-shards", func() error { _, err := UnionApproxSummaries(shards[:]...); return err }},
			{"union-halves", func() error { _, err := UnionApproxSummaries(halves[:]...); return err }},
			{"fold-cold", func() error { _, err := cold.FoldFrom(0); return err }},
			{"fold-warm", func() error { warm.fold(false); return nil }},
			{"fold-tail", func() error { _, err := full.FoldTail(tail); return err }},
		}
		for _, site := range sites {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/workers=%d", sh.name, site.name, workers), func(b *testing.B) {
					SetParallelism(workers)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := site.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
