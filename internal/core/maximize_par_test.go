package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ipin/internal/graph"
	"ipin/internal/obs"
)

// TestGreedyFirstRoundGainIsSize pins why ApproxOracle.TopK needs no
// first-round pre-pass: on the batch log and the streaming window every
// node's first-round gain is its size bit for bit, so a pre-pass that
// lifts each size to its first-round gain would lift none.
func TestGreedyFirstRoundGainIsSize(t *testing.T) {
	for _, sh := range exactShapes(t) {
		as, err := ComputeApprox(sh.log, sh.omega, DefaultPrecision)
		if err != nil {
			t.Fatal(err)
		}
		o := NewApproxOracle(as)
		size, cov := o.sizes(), o.coverage()
		for u := range size {
			if g := cov.gain(graph.NodeID(u)); math.Float64bits(g) != math.Float64bits(size[u]) {
				t.Fatalf("%s: node %d first-round gain %v, size %v", sh.name, u, g, size[u])
			}
		}
	}
}

// TestSelectionParallelismInvariant pins that the worker count never
// changes which seeds any strategy selects: the parallel oracle builds
// (index fill, collapse, size estimates) must reproduce the sequential
// choices exactly, on an oracle built for the call and on one already
// built.
func TestSelectionParallelismInvariant(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(21))
	l := randomLog(rng, 120, 900)
	const omega, k = 60, 8
	es := ComputeExact(l, omega)
	as, err := ComputeApprox(l, omega, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]graph.NodeID {
		eo, ao := NewExactOracle(es), NewApproxOracle(as)
		return [][]graph.NodeID{
			TopKExact(es, k),
			TopKApproxSeeds(as, k),
			TopKExactCELF(es, k),
			TopKApproxCELF(as, k),
			eo.TopK(k),
			ao.TopK(k),
			eo.TopKCELF(k),
			ao.TopKCELF(k),
		}
	}
	SetParallelism(1)
	want := run()
	for _, workers := range []int{2, 4, 7} {
		SetParallelism(workers)
		got := run()
		for s := range want {
			if !reflect.DeepEqual(want[s], got[s]) {
				t.Fatalf("workers=%d strategy %d selected %v, sequential %v", workers, s, got[s], want[s])
			}
		}
	}
}

// TestCELFGainEvaluationsWorkerInvariant pins the CELF gain-evaluation
// counter to the evaluations the sequential lazy-greedy loop makes: the
// same count at one and two workers, on exact and approx oracles.
func TestCELFGainEvaluationsWorkerInvariant(t *testing.T) {
	defer SetParallelism(0)
	reg := obs.NewRegistry()
	InstallMetrics(reg)
	t.Cleanup(func() { InstallMetrics(nil) })
	rng := rand.New(rand.NewSource(8))
	l := randomLog(rng, 200, 2000)
	es := ComputeExact(l, 100)
	as, err := ComputeApprox(l, 100, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	const key = `ipin_select_gain_evaluations_total{strategy="celf"}`
	evals := func(workers int, celf func() []graph.NodeID) int64 {
		SetParallelism(workers)
		before, _ := reg.Snapshot()[key].(int64)
		celf()
		after, _ := reg.Snapshot()[key].(int64)
		return after - before
	}
	for name, celf := range map[string]func() []graph.NodeID{
		"exact":  func() []graph.NodeID { return TopKExactCELF(es, 10) },
		"approx": func() []graph.NodeID { return TopKApproxCELF(as, 10) },
	} {
		one, two := evals(1, celf), evals(2, celf)
		if one == 0 || one != two {
			t.Fatalf("%s: CELF gain evaluations %d at one worker, %d at two", name, one, two)
		}
	}
}

// TestConcurrentTopK runs selections with different k side by side on
// one oracle of each kind, as serve does for distinct /topk requests,
// and holds each to the seeds a sequential call selects. Run it with
// -race: the calls share the oracle's table and nothing else.
func TestConcurrentTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randomLog(rng, 150, 1200)
	as, err := ComputeApprox(l, 80, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]Oracle{
		"exact":  NewExactOracle(ComputeExact(l, 80)),
		"approx": NewApproxOracle(as),
	} {
		ks := []int{1, 2, 3, 5, 8, 13}
		want := make([][]graph.NodeID, len(ks))
		for i, k := range ks {
			want[i] = o.TopK(k)
		}
		got := make([][]graph.NodeID, len(ks))
		var wg sync.WaitGroup
		for i, k := range ks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = o.TopK(k)
			}()
		}
		wg.Wait()
		for i, k := range ks {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s k=%d: concurrent TopK %v, sequential %v", name, k, got[i], want[i])
			}
		}
	}
}

// TestCELFMatchesGreedySeedForSeed: with the total-order heap tie rule
// (gain desc, size desc, node asc) CELF's selection is identical to the
// greedy scan's first-max rule, not merely equal in spread.
func TestCELFMatchesGreedySeedForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		l := randomLog(rng, 80, 600)
		es := ComputeExact(l, 50)
		greedy := TopKExact(es, 6)
		celf := TopKExactCELF(es, 6)
		if !reflect.DeepEqual(greedy, celf) {
			t.Fatalf("trial %d: greedy %v != celf %v", trial, greedy, celf)
		}
	}
}
