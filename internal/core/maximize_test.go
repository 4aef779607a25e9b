package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/graph"
)

// starsLog builds two disjoint temporal stars plus a small chain:
// node 0 reaches {10..19}, node 1 reaches {10..14, 20..22}, node 2
// reaches {30}. Greedy must pick 0 first (largest set), then 1 (largest
// marginal: {20,21,22} beats 2's {30}), then 2.
func starsLog() *graph.Log {
	l := graph.New(31)
	t := graph.Time(1)
	for v := 10; v < 20; v++ {
		l.Add(0, graph.NodeID(v), t)
		t++
	}
	for v := 10; v < 15; v++ {
		l.Add(1, graph.NodeID(v), t)
		t++
	}
	for v := 20; v < 23; v++ {
		l.Add(1, graph.NodeID(v), t)
		t++
	}
	l.Add(2, 30, t)
	l.Sort()
	return l
}

func TestTopKExactGreedyOrder(t *testing.T) {
	s := ComputeExact(starsLog(), 1)
	seeds := TopKExact(s, 3)
	want := []graph.NodeID{0, 1, 2}
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", seeds, want)
		}
	}
}

func TestTopKExactCELFAgreesWithGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		l := randomLog(rng, 60, 500)
		s := ComputeExact(l, 100)
		for _, k := range []int{1, 5, 10} {
			greedy := TopKExact(s, k)
			celf := TopKExactCELF(s, k)
			// The seed SETS can differ on ties, but the achieved coverage
			// cannot: both are exact greedy.
			if g, c := s.SpreadExact(greedy), s.SpreadExact(celf); g != c {
				t.Fatalf("trial %d k=%d: greedy spread %d != CELF spread %d", trial, k, g, c)
			}
		}
	}
}

// TestGreedyIsNearOptimal compares greedy coverage against the true
// optimum (exhaustive search) on small instances: greedy must achieve at
// least (1−1/e) ≈ 0.632 of it; on these sizes it is usually optimal.
func TestGreedyIsNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		l := randomLog(rng, 12, 70)
		s := ComputeExact(l, 20)
		k := 3
		greedy := TopKExact(s, k)
		gv := s.SpreadExact(greedy)
		// Exhaustive optimum over all 3-subsets.
		best := 0
		n := s.NumNodes()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for m := j + 1; m < n; m++ {
					v := s.SpreadExact([]graph.NodeID{graph.NodeID(i), graph.NodeID(j), graph.NodeID(m)})
					if v > best {
						best = v
					}
				}
			}
		}
		if float64(gv) < 0.632*float64(best) {
			t.Errorf("trial %d: greedy %d below 0.632·opt (opt %d)", trial, gv, best)
		}
	}
}

func TestTopKRequestsMoreThanNodes(t *testing.T) {
	l := graph.New(3)
	l.Add(0, 1, 1)
	l.Sort()
	s := ComputeExact(l, 5)
	seeds := TopKExact(s, 10)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want clamp to 3", len(seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, u := range seeds {
		if seen[u] {
			t.Fatalf("duplicate seed %d in %v", u, seeds)
		}
		seen[u] = true
	}
}

func TestTopKZeroCoverageFillsDeterministically(t *testing.T) {
	// Empty log: all IRS are empty; the selection must still return k
	// distinct seeds and be stable across calls.
	s := ComputeExact(graph.New(5), 5)
	a1 := TopKExact(s, 4)
	a2 := TopKExact(s, 4)
	if len(a1) != 4 {
		t.Fatalf("got %d seeds", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("fill not deterministic")
		}
	}
}

func TestTopKApproxMatchesExactOnSeparatedSizes(t *testing.T) {
	// The three stars have well-separated sizes (10, 8, 1), far beyond
	// sketch noise, so the approximate greedy must find the same order.
	l := starsLog()
	s, err := ComputeApprox(l, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	seeds := TopKApproxSeeds(s, 3)
	want := []graph.NodeID{0, 1, 2}
	for i := range want {
		if seeds[i] != want[i] {
			t.Fatalf("approx seeds = %v, want %v", seeds, want)
		}
	}
	celf := TopKApproxCELF(s, 3)
	for i := range want {
		if celf[i] != want[i] {
			t.Fatalf("approx CELF seeds = %v, want %v", celf, want)
		}
	}
}

// TestApproxOracleTopKReusable pins that one oracle answers selections
// with different k, each starting from an empty coverage.
func TestApproxOracleTopKReusable(t *testing.T) {
	l := starsLog()
	s, err := ComputeApprox(l, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	o := NewApproxOracle(s)
	if got := o.TopK(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("TopK(1) = %v", got)
	}
	// A second call with larger k starts fresh, not from leftover state.
	if got := o.TopK(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("TopK(2) = %v", got)
	}
}

func TestOracleInterfaces(t *testing.T) {
	l := fig1a()
	exact := ComputeExact(l, 3)
	approx, err := ComputeApprox(l, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	var oe Oracle = NewExactOracle(exact)
	var oa Oracle = NewApproxOracle(approx)
	if oe.NumNodes() != 6 || oa.NumNodes() != 6 {
		t.Fatal("NumNodes mismatch")
	}
	if oe.InfluenceSize(a) != 4 {
		t.Errorf("exact oracle |σ(a)| = %.0f, want 4", oe.InfluenceSize(a))
	}
	if got := oa.InfluenceSize(a); got < 3.5 || got > 4.5 {
		t.Errorf("approx oracle |σ(a)| = %.2f, want ≈4", got)
	}
	if oe.Spread([]graph.NodeID{a, e}) != 5 {
		t.Errorf("exact oracle spread = %.0f, want 5", oe.Spread([]graph.NodeID{a, e}))
	}
	// Approx spread of {a,e}: {b,c,d,e} ∪ {b,c,f,e(self-cycle phantom)}
	// ≈ 6 hashed items.
	if got := oa.Spread([]graph.NodeID{a, e}); got < 4.5 || got > 7 {
		t.Errorf("approx oracle spread = %.2f, want ≈6", got)
	}
	if got := oa.Spread(nil); got != 0 {
		t.Errorf("approx oracle empty spread = %.2f", got)
	}
	if oa.InfluenceSize(c) != 0 {
		t.Errorf("approx oracle sink influence = %.2f", oa.InfluenceSize(c))
	}
}

// mapCoverage is the coverage over map summaries with a map union, the
// layout the index and bitset replaced, kept as the reference exact
// selection is held to.
type mapCoverage struct {
	s       *ExactSummaries
	covered map[graph.NodeID]struct{}
}

func (c *mapCoverage) gain(u graph.NodeID) float64 {
	g := 0
	for v := range c.s.Phi[u] {
		if _, ok := c.covered[v]; !ok {
			g++
		}
	}
	return float64(g)
}

func (c *mapCoverage) add(u graph.NodeID) {
	for v := range c.s.Phi[u] {
		c.covered[v] = struct{}{}
	}
}

// TestExactIndexMatchesMapReference holds the index-backed oracle and
// both exact selections to the map references: Spread equals
// SpreadExact on random seed sets with duplicates, and greedy and CELF
// pick the reference's seeds, ties and the zero-coverage fill included,
// for k up to past n, both on an oracle built for the call and on the
// one already built. The hand-built summaries name ids ≥ len(Phi),
// which the public Phi allows.
func TestExactIndexMatchesMapReference(t *testing.T) {
	defer SetParallelism(0)
	rng := rand.New(rand.NewSource(41))
	cases := map[string]*ExactSummaries{
		"empty": ComputeExact(graph.New(5), 5),
		"hand-built": {Omega: 5, Phi: []map[graph.NodeID]graph.Time{
			{7: 1, 9: 2, 200: 3},
			nil,
			{9: 3, 0: 1},
			{1: 4},
		}},
		"stars": ComputeExact(starsLog(), 1),
	}
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.Intn(100)
		cases[fmt.Sprintf("random-%d", trial)] = ComputeExact(randomLog(rng, n, 8*n), int64(1+rng.Intn(4*n)))
	}
	for name, s := range cases {
		for _, workers := range []int{1, 3} {
			SetParallelism(workers)
			o := NewExactOracle(s)
			n := s.NumNodes()
			if o.NumNodes() != n {
				t.Fatalf("%s: NumNodes %d, want %d", name, o.NumNodes(), n)
			}
			for u := 0; u < n; u++ {
				if got, want := o.InfluenceSize(graph.NodeID(u)), float64(s.IRSSize(graph.NodeID(u))); got != want {
					t.Fatalf("%s: InfluenceSize(%d) = %v, want %v", name, u, got, want)
				}
			}
			for q := 0; q < 50; q++ {
				seeds := make([]graph.NodeID, rng.Intn(12))
				for i := range seeds {
					seeds[i] = graph.NodeID(rng.Intn(n))
				}
				if q%5 == 0 && len(seeds) > 1 {
					seeds[1] = seeds[0]
				}
				if got, want := o.Spread(seeds), float64(s.SpreadExact(seeds)); got != want {
					t.Fatalf("%s: Spread(%v) = %v, SpreadExact %v", name, seeds, got, want)
				}
			}
			size := make([]float64, n)
			for u := range size {
				size[u] = float64(s.IRSSize(graph.NodeID(u)))
			}
			for _, k := range []int{1, 3, n, n + 4} {
				want := greedyTopK(n, k, size, &mapCoverage{s: s, covered: map[graph.NodeID]struct{}{}})
				if got := TopKExact(s, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: TopKExact %v, map reference %v", name, k, got, want)
				}
				if got := o.TopK(k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: Oracle.TopK %v, map reference %v", name, k, got, want)
				}
				want = celfTopK(n, k, size, &mapCoverage{s: s, covered: map[graph.NodeID]struct{}{}})
				if got := TopKExactCELF(s, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: TopKExactCELF %v, map reference %v", name, k, got, want)
				}
				if got := o.TopKCELF(k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s k=%d: ExactOracle.TopKCELF %v, map reference %v", name, k, got, want)
				}
			}
		}
	}
}

// TestExactSummariesCarryNoIndex pins that the query index lives in the
// oracle, never on the summaries a caller keeps: ExactSummaries is
// exactly Omega and Phi.
func TestExactSummariesCarryNoIndex(t *testing.T) {
	typ := reflect.TypeOf(ExactSummaries{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(fields, []string{"Omega", "Phi"}) {
		t.Fatalf("ExactSummaries fields = %v, want [Omega Phi]", fields)
	}
}

// TestExactSpreadAllocs is the allocation gate of the exact oracle: a
// Spread query allocates its bitset and nothing else, so a map union
// cannot creep back in.
func TestExactSpreadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := NewExactOracle(ComputeExact(randomLog(rng, 200, 3000), 500))
	seeds := []graph.NodeID{3, 17, 42, 99, 150, 3}
	if allocs := testing.AllocsPerRun(200, func() { _ = o.Spread(seeds) }); allocs > 1 {
		t.Fatalf("ExactOracle.Spread allocates %.1f times per call, want ≤ 1", allocs)
	}
}

// TestApproxSpreadAllocs is the allocation gate of the approx oracle: a
// Spread query allocates its union's register array and nothing else,
// and a greedy marginal-gain evaluation allocates nothing, so neither a
// per-seed sketch nor a per-gain clone can creep back in.
func TestApproxSpreadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := ComputeApprox(randomLog(rng, 200, 3000), 500, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	o := NewApproxOracle(s)
	seeds := []graph.NodeID{3, 17, 42, 99, 150, 3}
	if allocs := testing.AllocsPerRun(200, func() { _ = o.Spread(seeds) }); allocs > 1 {
		t.Fatalf("ApproxOracle.Spread allocates %.1f times per call, want ≤ 1", allocs)
	}
	cov := o.coverage()
	cov.add(3)
	if allocs := testing.AllocsPerRun(200, func() { _ = cov.gain(42) }); allocs != 0 {
		t.Fatalf("a marginal-gain evaluation allocates %.1f times, want 0", allocs)
	}
}
