package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/graph"
	"ipin/internal/temporal"
)

// Node labels of the paper's figures.
const (
	a graph.NodeID = iota
	b
	c
	d
	e
	f
)

// fig1a is the interaction network of the paper's Figure 1a.
func fig1a() *graph.Log {
	l := graph.New(6)
	l.Add(a, d, 1)
	l.Add(e, f, 2)
	l.Add(d, e, 3)
	l.Add(e, b, 4)
	l.Add(a, b, 5)
	l.Add(b, e, 6)
	l.Add(e, c, 7)
	l.Add(b, c, 8)
	l.Sort()
	return l
}

// TestPaperExample2 checks the final summaries of the paper's worked
// Example 2 (Figure 1a, ω = 3) entry by entry.
func TestPaperExample2(t *testing.T) {
	s := ComputeExact(fig1a(), 3)
	want := []map[graph.NodeID]graph.Time{
		a: {b: 5, c: 7, e: 3, d: 1},
		b: {c: 7, e: 6},
		c: {},
		d: {e: 3, b: 4},
		e: {c: 7, b: 4, f: 2},
		f: {},
	}
	for u := range want {
		got := s.Phi[u]
		if len(got) != len(want[u]) {
			t.Errorf("ϕ(%d) = %v, want %v", u, got, want[u])
			continue
		}
		for v, tm := range want[u] {
			if got[v] != tm {
				t.Errorf("node %d: λ(%d) = %d, want %d", u, v, got[v], tm)
			}
		}
	}
}

// TestExampleTraceIntermediates checks two intermediate states the paper
// narrates: after edge (b,e,6) node b's entry for c improves from 8 to 7,
// and during (a,b,5) the entry (e,6) of ϕ(b) is admitted while (c,7) stays
// within the window.
func TestExampleTraceIntermediates(t *testing.T) {
	// Process only the suffix starting at time 5 (reverse order).
	l := graph.New(6)
	l.Add(a, b, 5)
	l.Add(b, e, 6)
	l.Add(e, c, 7)
	l.Add(b, c, 8)
	l.Sort()
	s := ComputeExact(l, 3)
	// ϕ(b): direct (c,8) improved via e to (c,7); (e,6).
	if s.Phi[b][c] != 7 {
		t.Errorf("λ(b,c) = %d, want 7 (improved through e)", s.Phi[b][c])
	}
	if s.Phi[b][e] != 6 {
		t.Errorf("λ(b,e) = %d, want 6", s.Phi[b][e])
	}
	// ϕ(a): (b,5) and (c,7) [7−5 < 3] and (e,6) [6−5 < 3].
	wantA := map[graph.NodeID]graph.Time{b: 5, c: 7, e: 6}
	if !reflect.DeepEqual(s.Phi[a], wantA) {
		t.Errorf("ϕ(a) = %v, want %v", s.Phi[a], wantA)
	}
}

// TestExactMatchesBruteForce cross-checks the one-pass algorithm against
// the definition-level brute force on random interaction networks over a
// sweep of window lengths.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(12)
		m := 10 + rng.Intn(80)
		l := graph.New(n)
		for i := 0; i < m; i++ {
			l.Add(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.Time(i+1))
		}
		l.Sort()
		for _, omega := range []int64{1, 2, 5, int64(m / 2), int64(m + 1)} {
			got := ComputeExact(l, omega)
			want := temporal.ReachSets(l, omega)
			for u := 0; u < n; u++ {
				gu := got.Phi[u]
				if gu == nil {
					gu = map[graph.NodeID]graph.Time{}
				}
				if len(gu) != len(want[u]) {
					t.Fatalf("trial %d ω=%d node %d: got %v, want %v", trial, omega, u, gu, want[u])
				}
				for v, tm := range want[u] {
					if gu[v] != tm {
						t.Fatalf("trial %d ω=%d: λ(%d,%d) = %d, want %d", trial, omega, u, v, gu[v], tm)
					}
				}
			}
		}
	}
}

func TestExactAccessors(t *testing.T) {
	s := ComputeExact(fig1a(), 3)
	if s.NumNodes() != 6 {
		t.Errorf("NumNodes = %d", s.NumNodes())
	}
	if s.IRSSize(a) != 4 {
		t.Errorf("|σ(a)| = %d, want 4", s.IRSSize(a))
	}
	if got := len(s.IRS(a)); got != 4 {
		t.Errorf("IRS(a) has %d nodes, want 4", got)
	}
	if tm, ok := s.Lambda(a, e); !ok || tm != 3 {
		t.Errorf("Lambda(a,e) = %d,%v, want 3,true", tm, ok)
	}
	if _, ok := s.Lambda(c, a); ok {
		t.Error("Lambda(c,a) exists, want absent")
	}
	// 4+2+0+2+3+0 = 11 entries, 12 bytes each.
	if got := s.EntryCount(); got != 11 {
		t.Errorf("EntryCount = %d, want 11", got)
	}
	if got := s.MemoryBytes(); got != 11*12 {
		t.Errorf("MemoryBytes = %d, want %d", got, 11*12)
	}
}

func TestSpreadExact(t *testing.T) {
	s := ComputeExact(fig1a(), 3)
	// σ(a) = {b,c,d,e}, σ(e) = {b,c,f}: union has 5 elements.
	if got := s.SpreadExact([]graph.NodeID{a, e}); got != 5 {
		t.Errorf("Spread({a,e}) = %d, want 5", got)
	}
	if got := s.SpreadExact(nil); got != 0 {
		t.Errorf("Spread(∅) = %d, want 0", got)
	}
	// Duplicated seeds change nothing.
	if got := s.SpreadExact([]graph.NodeID{a, a, a}); got != 4 {
		t.Errorf("Spread({a,a,a}) = %d, want 4", got)
	}
}

func TestOmegaOneIsDirectInteractions(t *testing.T) {
	s := ComputeExact(fig1a(), 1)
	// With ω=1 only single interactions qualify.
	want := []int{
		a: 2, // d, b
		b: 2, // e, c
		c: 0,
		d: 1, // e
		e: 3, // f, b, c
		f: 0,
	}
	for u, w := range want {
		if got := s.IRSSize(graph.NodeID(u)); got != w {
			t.Errorf("|σ1(%d)| = %d, want %d", u, got, w)
		}
	}
}

func TestLargeOmegaEqualsUnbounded(t *testing.T) {
	l := fig1a()
	_, _, span := l.Span()
	s1 := ComputeExact(l, span)
	s2 := ComputeExact(l, span*10)
	for u := 0; u < l.NumNodes; u++ {
		if s1.IRSSize(graph.NodeID(u)) != s2.IRSSize(graph.NodeID(u)) {
			t.Errorf("node %d: ω=span differs from ω=10·span", u)
		}
	}
}

func TestSelfLoopInteractionsIgnored(t *testing.T) {
	l := graph.New(2)
	l.Add(0, 0, 1)
	l.Add(0, 1, 2)
	l.Add(1, 1, 3)
	l.Sort()
	s := ComputeExact(l, 10)
	if s.IRSSize(0) != 1 {
		t.Errorf("|σ(0)| = %d, want 1", s.IRSSize(0))
	}
	if s.IRSSize(1) != 0 {
		t.Errorf("|σ(1)| = %d, want 0", s.IRSSize(1))
	}
}

func TestTiedTimestampsDoNotChain(t *testing.T) {
	// Definition 1 requires strictly increasing times; two interactions
	// sharing a timestamp must not form a channel, even though the paper
	// assumes such inputs never occur.
	l := graph.New(3)
	l.Add(0, 1, 5)
	l.Add(1, 2, 5)
	l.Sort()
	s := ComputeExact(l, 100)
	if _, ok := s.Lambda(0, 2); ok {
		t.Error("channel chained through tied timestamps")
	}
	// Agreement with the brute force on the tied input.
	want := temporal.ReachSets(l, 100)
	for u := 0; u < 3; u++ {
		if s.IRSSize(graph.NodeID(u)) != len(want[u]) {
			t.Errorf("node %d: %d vs brute force %d", u, s.IRSSize(graph.NodeID(u)), len(want[u]))
		}
	}
}

func TestEmptyLog(t *testing.T) {
	s := ComputeExact(graph.New(4), 5)
	if s.EntryCount() != 0 {
		t.Fatalf("EntryCount = %d on empty log", s.EntryCount())
	}
	if got := s.SpreadExact([]graph.NodeID{0, 1, 2, 3}); got != 0 {
		t.Fatalf("Spread = %d on empty log", got)
	}
}

// exactMapScan is Algorithm 2 over map summaries, the scan the working
// tables replaced, kept as the reference ComputeExact and
// ComputeExactParallel are held to.
func exactMapScan(l *graph.Log, omega int64) *ExactSummaries {
	s := &ExactSummaries{Omega: omega, Phi: make([]map[graph.NodeID]graph.Time, l.NumNodes)}
	for i := len(l.Interactions) - 1; i >= 0; i-- {
		e := l.Interactions[i]
		if e.Src == e.Dst {
			continue
		}
		phiU := s.Phi[e.Src]
		if phiU == nil {
			phiU = make(map[graph.NodeID]graph.Time)
			s.Phi[e.Src] = phiU
		}
		mapAdd(phiU, e.Dst, e.At)
		for x, tx := range s.Phi[e.Dst] {
			if x != e.Src && tx > e.At && int64(tx-e.At) < omega {
				mapAdd(phiU, x, tx)
			}
		}
	}
	return s
}

func mapAdd(phi map[graph.NodeID]graph.Time, v graph.NodeID, t graph.Time) {
	if old, ok := phi[v]; !ok || t < old {
		phi[v] = t
	}
}

// TestExactTableMatchesMap drives one working table and a map through
// the same inserts, ids at both ends of the int32 range included, across
// several growths.
func TestExactTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var tb exactTable
	want := map[graph.NodeID]graph.Time{}
	ids := []graph.NodeID{0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for i := 0; i < 5000; i++ {
		v := graph.NodeID(rng.Intn(3000))
		if i%7 == 0 {
			v = ids[rng.Intn(len(ids))]
		}
		at := graph.Time(rng.Intn(1000))
		_, had := want[v]
		if got := tb.add(v, at); got == had {
			t.Fatalf("add(%d) reported new=%v, map had it: %v", v, got, had)
		}
		mapAdd(want, v, at)
	}
	if tb.count != len(want) {
		t.Fatalf("count %d, map %d", tb.count, len(want))
	}
	got := exactMaps([]exactTable{tb}, 1)[0]
	if !reflect.DeepEqual(got, want) {
		t.Fatal("table contents differ from the map")
	}
}
