package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ipin/internal/graph"
)

// bigRandomLog builds a log large enough to cross minParallelEdges, with
// timestamps 1..m so block boundaries fall mid-stream. tieWidth > 1
// collapses that many consecutive interactions onto one timestamp to
// exercise tied times at block edges.
func bigRandomLog(rng *rand.Rand, n, m, tieWidth int) *graph.Log {
	l := graph.New(n)
	for i := 0; i < m; i++ {
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		at := i + 1
		if tieWidth > 1 {
			at = i/tieWidth + 1
		}
		l.Add(src, dst, graph.Time(at))
	}
	l.Sort()
	return l
}

func exactBytes(t *testing.T, s *ExactSummaries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

func approxBytes(t *testing.T, s *ApproxSummaries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestComputeExactParallelMatchesSequential pins both exact scans to the
// map reference: equal Phi and byte-identical canonical encodings, on
// both sides of the slicing floor, across worker counts, windows from 1
// tick to the whole span, tied stamps, self-loops, ids at the top of a
// wide node range, and the empty log. Below the floor, and when ω spans
// the log, the time-sliced scan also runs directly, past the gate.
func TestComputeExactParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name      string
		n, m, tie int
		top       int   // > 0: ids drawn from the top top ids of n
		omega     int64 // 0: the log's whole span
		workers   int
		sliced    bool // ComputeExactParallel takes the time-sliced path
	}{
		{name: "floor", n: 150, m: minParallelEdges, tie: 1, omega: 40, workers: 2, sliced: true},
		{name: "five-blocks", n: 150, m: 4 * minParallelEdges, tie: 1, omega: 40, workers: 5, sliced: true},
		{name: "wide-window", n: 60, m: 4 * minParallelEdges, tie: 1, omega: 200, workers: 3, sliced: true},
		{name: "ties", n: 150, m: 4 * minParallelEdges, tie: 4, omega: 25, workers: 4, sliced: true},
		{name: "self-loops", n: 3, m: 2 * minParallelEdges, tie: 1, omega: 30, workers: 2, sliced: true},
		{name: "omega-1", n: 40, m: 2 * minParallelEdges, tie: 1, omega: 1, workers: 2, sliced: true},
		{name: "omega-span", n: 80, m: 2 * minParallelEdges, tie: 2, workers: 2},
		{name: "top-ids", n: 1 << 16, m: 2 * minParallelEdges, tie: 1, top: 50, omega: 60, workers: 3, sliced: true},
		{name: "below-floor", n: 60, m: minParallelEdges / 2, tie: 3, omega: 30, workers: 2},
		{name: "empty", n: 5, omega: 10, workers: 2},
	} {
		l := bigRandomLog(rng, tc.n, tc.m, tc.tie)
		if tc.top > 0 {
			for i := range l.Interactions {
				e := &l.Interactions[i]
				e.Src = graph.NodeID(tc.n - 1 - rng.Intn(tc.top))
				e.Dst = graph.NodeID(tc.n - 1 - rng.Intn(tc.top))
			}
		}
		omega := tc.omega
		if omega == 0 {
			_, _, span := l.Span()
			omega = span + 1
		}
		if got := sliceable(l, omega, tc.workers); got != tc.sliced {
			t.Fatalf("%s: sliceable = %v, want %v", tc.name, got, tc.sliced)
		}
		want := exactMapScan(l, omega)
		runs := map[string]*ExactSummaries{
			"ComputeExact":         ComputeExact(l, omega),
			"ComputeExactParallel": ComputeExactParallel(l, omega, tc.workers),
		}
		if !tc.sliced && l.Len() > 0 {
			runs["computeExactSliced"] = computeExactSliced(l, omega, tc.workers)
		}
		for run, got := range runs {
			if !reflect.DeepEqual(want.Phi, got.Phi) {
				t.Fatalf("%s: %s Phi differs from the map reference", tc.name, run)
			}
			if !bytes.Equal(exactBytes(t, want), exactBytes(t, got)) {
				t.Fatalf("%s: %s encoding differs from the map reference", tc.name, run)
			}
		}
	}
}

// TestComputeApproxParallelMatchesSequential pins the sketch contents —
// every (rank, timestamp) staircase, via the canonical encoding — of the
// time-sliced scan to the sequential one, on both sides of the slicing
// floor; below it the time-sliced scan runs directly, past the gate.
func TestComputeApproxParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n, m, tie int
		omega     int64
		workers   int
	}{
		{n: 150, m: minParallelEdges, tie: 1, omega: 40, workers: 2},
		{n: 60, m: 4 * minParallelEdges, tie: 1, omega: 150, workers: 4},
		{n: 150, m: 4 * minParallelEdges, tie: 3, omega: 30, workers: 3},
		{n: 40, m: minParallelEdges / 2, tie: 1, omega: 20, workers: 2},
	} {
		l := bigRandomLog(rng, tc.n, tc.m, tc.tie)
		if sliced := sliceable(l, tc.omega, tc.workers); sliced != (tc.m >= minParallelEdges) {
			t.Fatalf("config %+v: sliceable = %v", tc, sliced)
		}
		want, err := ComputeApprox(l, tc.omega, DefaultPrecision)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeApproxParallel(l, tc.omega, DefaultPrecision, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(approxBytes(t, want), approxBytes(t, got)) {
			t.Fatalf("config %+v: sketch encodings differ", tc)
		}
		forced := computeApproxSliced(l, tc.omega, DefaultPrecision, tc.workers)
		if !bytes.Equal(approxBytes(t, want), approxBytes(t, forced)) {
			t.Fatalf("config %+v: forced time-sliced sketch encodings differ", tc)
		}
	}
}

// TestParallelFallback checks the small-log and wide-window guards: both
// parallel entry points must quietly produce the sequential result.
func TestParallelFallback(t *testing.T) {
	l := fig1a()
	want := ComputeExact(l, 5)
	got := ComputeExactParallel(l, 5, 8)
	if !reflect.DeepEqual(want.Phi, got.Phi) {
		t.Fatal("fallback exact result differs")
	}
	wantA, err := ComputeApprox(l, 5, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := ComputeApproxParallel(l, 5, DefaultPrecision, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(approxBytes(t, wantA), approxBytes(t, gotA)) {
		t.Fatal("fallback approx result differs")
	}
	if _, err := ComputeApproxParallel(graph.New(2), 5, 1, 8); err == nil {
		t.Fatal("bad precision accepted")
	}
}

func TestSliceable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := bigRandomLog(rng, 20, 100, 1)
	if sliceable(small, 10, 4) {
		t.Fatal("tiny log reported sliceable")
	}
	big := bigRandomLog(rng, 100, minParallelEdges, 1)
	if !sliceable(big, 10, 4) {
		t.Fatal("large log with narrow window not sliceable")
	}
	// ω covering most of the span defeats the decomposition.
	_, _, span := big.Span()
	if sliceable(big, span, 4) {
		t.Fatal("window spanning the log reported sliceable")
	}
	if sliceable(big, 10, 1) {
		t.Fatal("single block reported sliceable")
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(-1)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset", got)
	}
}
