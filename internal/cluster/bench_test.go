package cluster

import (
	"math/rand"
	"testing"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
)

// BenchmarkViewQueries times the sketch work of a scatter-gather query
// miss: View.Influence per node and View.Spread per seed set of 1–10
// nodes, over two shards' summaries of the streaming workloads' window
// (5,000 nodes, 65,536 uniform interactions, ω = 32,768), split by the
// default slot map.
func BenchmarkViewQueries(b *testing.B) {
	window, err := gen.Generate(gen.Config{
		Name: "window", Model: gen.ModelUniform, Nodes: 5000,
		Interactions: 1 << 16, SpanTicks: 4 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	window.Detie()
	const nodes, omega = 5000, 32768
	slots := DefaultSlotMap(2)
	g := newGather(2, newMetrics(nil, 2))
	for sh := 0; sh < 2; sh++ {
		l := graph.New(nodes)
		for _, e := range window.Interactions {
			if slots.ShardOf(e.Src) == sh {
				l.Add(e.Src, e.Dst, e.At)
			}
		}
		s, err := core.ComputeApprox(l, omega, core.DefaultPrecision)
		if err != nil {
			b.Fatal(err)
		}
		g.Publish(sh, s)
	}
	v := g.View()
	rng := rand.New(rand.NewSource(1))
	battery := make([][]graph.NodeID, 256)
	for i := range battery {
		battery[i] = make([]graph.NodeID, 1+rng.Intn(10))
		for j := range battery[i] {
			battery[i][j] = graph.NodeID(rng.Intn(nodes))
		}
	}
	var sink float64
	b.Run("influence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += v.Influence(graph.NodeID(i % nodes))
		}
	})
	b.Run("spread", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += v.Spread(battery[i%len(battery)])
		}
	})
	if sink < 0 {
		b.Fatal("negative estimate")
	}
}
