package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, err := batchSetup(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchSetup(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("batch inputs differ for the same seed")
	}
	c, err := batchSetup(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a[0].log.Interactions, c[0].log.Interactions) || reflect.DeepEqual(a[0].log.Interactions, a[1].log.Interactions) {
		t.Fatal("batch logs identical across seeds or within a run")
	}

	f1, err := newFeed(7)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := newFeed(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, feedBlock - 1, feedBlock, 3*feedBlock + 5} {
		if f1.edge(i) != f2.edge(i) {
			t.Fatalf("feed edge %d differs for the same seed", i)
		}
	}
	// Cycling keeps timestamps strictly increasing across the seam.
	if f1.edge(feedBlock).At <= f1.edge(feedBlock-1).At {
		t.Fatal("feed timestamps not increasing across a cycle")
	}
	var at atomic.Int64
	c1 := newClient(&pipe{}, 7, &at)
	c2 := newClient(&pipe{}, 7, &at)
	routes := map[string]int{}
	for i := 0; i < 2*dashSlots-7; i++ {
		r1, u1 := c1.next()
		r2, u2 := c2.next()
		if r1 != r2 || u1 != u2 {
			t.Fatalf("query %d differs for the same seed: %s vs %s", i, u1, u2)
		}
		routes[r1]++
	}
	// cmd/benchserve's cycle: per 16 slots one /topk, here also one
	// /influence and one /spreadwindow; the rest /spread. The generation
	// never moves, so only the first /topk slot is sent.
	if want := (map[string]int{"spread": 2 * 52, "topk": 1, "influence": 8, "spreadwindow": 8}); !reflect.DeepEqual(routes, want) {
		t.Fatalf("route counts over two cycles %v, want %v", routes, want)
	}
}

func TestSegmentDueTimesAndLateness(t *testing.T) {
	a := newSegment(nil, 1000, time.Second)
	if a.N != 1000 || a.First != 0 || a.Start != 0 {
		t.Fatalf("first segment %+v", a)
	}
	if got := a.Due(500); got != 500*time.Millisecond {
		t.Fatalf("Due(500) = %v", got)
	}
	if a.End() != time.Second {
		t.Fatalf("End = %v", a.End())
	}
	b := newSegment(&a, 2000, 500*time.Millisecond)
	if b.First != 1000 || b.N != 1000 || b.Start != time.Second {
		t.Fatalf("chained segment %+v", b)
	}
	if got := b.Due(1500); got != 1250*time.Millisecond {
		t.Fatalf("Due(1500) = %v", got)
	}
	if !b.Contains(1000) || b.Contains(999) || b.Contains(2000) {
		t.Fatal("Contains bounds wrong")
	}
	if lateness(3*time.Millisecond, 5*time.Millisecond) != 0 {
		t.Fatal("early send must not count as late")
	}
	if lateness(7*time.Millisecond, 5*time.Millisecond) != 2*time.Millisecond {
		t.Fatal("lateness is send − due")
	}
}

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return v
	}
	d := summarize(seq(999))
	if d.N != 999 || d.HasP99 || d.P99 != 0 {
		t.Fatalf("999 samples: %+v (fewer than 10 lie beyond the p99)", d)
	}
	d = summarize(seq(1000))
	if d.N != 1000 || !d.HasP99 || d.P99 != 990 || d.P50 != 500 || d.Max != 1000 {
		t.Fatalf("1000 samples: %+v", d)
	}
	if d := summarize(nil); d.N != 0 || d.HasP99 {
		t.Fatalf("empty: %+v", d)
	}
}

func TestQuietMedians(t *testing.T) {
	// The quieter half (⌈5/2⌉ = 3) of steal shares 0.2, 0, 0.5, 0.1, 0.3
	// is units 1, 3 and 0, whose values 20, 40, 10 have the median 20.
	if got := quietMedian([]float64{10, 20, 30, 40, 50}, []float64{0.2, 0, 0.5, 0.1, 0.3}); got != 20 {
		t.Fatalf("quietMedian = %v, want 20", got)
	}
}

func TestUnstolen(t *testing.T) {
	t0 := time.Unix(0, 0)
	a := hostSample{wall: t0}
	// Two CPUs busy for 1 s of wall time, 0.5 s of it stolen: 1.5 s of
	// process CPU time, so the same work takes 0.75 s unstolen.
	b := hostSample{wall: t0.Add(time.Second), cpu: 1500 * time.Millisecond, steal: 500 * time.Millisecond}
	if got := unstolen(a, b); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("unstolen = %v, want 0.75", got)
	}
	if got := stolenShare(a, b); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("stolenShare = %v, want 0.25", got)
	}
	b.steal = 0
	if got := unstolen(a, b); got != 1 {
		t.Fatalf("without steal unstolen = %v, want the wall time", got)
	}
}

// synthetic builds the per-edge freshness of one 1000-edge rung at
// 1000 edges/s from publishes at the given times covering the given
// edge counts, with pushed == due count at each publish.
func synthetic(at []time.Duration, covered []int64) (segment, []float32, []pub) {
	seg := newSegment(nil, 1000, time.Second)
	fresh := make([]float32, seg.N)
	for i := range fresh {
		fresh[i] = float32(math.NaN())
	}
	f := freshener{}
	for i := 0; i < seg.N; i++ {
		f.edges = append(f.edges, int32(i))
	}
	var pubs []pub
	for k := range at {
		pushed := min(int64(at[k]/time.Millisecond), int64(seg.N))
		p := pub{At: at[k], Covered: covered[k], Pushed: pushed}
		pubs = append(pubs, p)
		f.cover(p, seg.Due, fresh)
	}
	return seg, fresh, pubs
}

func TestLadderVerdicts(t *testing.T) {
	ms := time.Millisecond
	interval, obj := 250*ms, 2*time.Second
	// Publishes every 250ms covering everything due 100ms earlier.
	seg, fresh, pubs := synthetic(
		[]time.Duration{250 * ms, 500 * ms, 750 * ms, 1000 * ms, 1250 * ms},
		[]int64{150, 400, 650, 900, 1000})
	if v, why := judgeRung(seg, fresh, pubs, interval, obj, 1300*ms); v != passed {
		t.Fatalf("steady rung: %v %s", v, why)
	}
	// Not all edges covered yet, still within the objective: pending.
	seg, fresh, pubs = synthetic([]time.Duration{250 * ms, 500 * ms}, []int64{150, 400})
	if v, _ := judgeRung(seg, fresh, pubs, interval, obj, 1100*ms); v != pending {
		t.Fatalf("incomplete rung: %v", v)
	}
	// ... and past the objective with edges still uncovered: failed.
	if v, _ := judgeRung(seg, fresh, pubs, interval, obj, 3100*ms); v != failed {
		t.Fatalf("stalled rung: %v", v)
	}
	// The last 100 edges become queryable 2.5s after their due time.
	seg, fresh, pubs = synthetic(
		[]time.Duration{250 * ms, 500 * ms, 750 * ms, 3400 * ms},
		[]int64{150, 400, 900, 1000})
	if v, _ := judgeRung(seg, fresh, pubs, interval, obj, 3500*ms); v != failed {
		t.Fatalf("freshness p99 over the objective must fail: %v", v)
	}
	// Within the objective, but each publish falls further behind: the
	// post-publish backlog grows from 100 to 500 edges across the rung.
	seg, fresh, pubs = synthetic(
		[]time.Duration{0, 400 * ms, 800 * ms, 1000 * ms, 1900 * ms},
		[]int64{0, 300, 500, 500, 1000})
	pubs[0].Pushed = 0
	if v, why := judgeRung(seg, fresh, pubs, interval, obj, 2000*ms); v != failed {
		t.Fatalf("growing backlog must fail: %v %s", v, why)
	}
}

func TestSelfTime(t *testing.T) {
	list := []span{
		{Name: "hook", ID: 1, Start: 0, End: 10_000_000},
		{Name: "load", ID: 1, Parent: "hook", Start: 2_000_000, End: 8_000_000},
		{Name: "load", ID: 2, Parent: "hook", Start: 0, End: 5_000_000}, // another hook's child
	}
	got := selfTimes(list, "hook")
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("self time %v, want [4] ms", got)
	}
	if d := durations(list, "load"); len(d) != 2 || d[0] != 6 {
		t.Fatalf("durations %v", d)
	}
}

func TestNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "stream.stage.fold_ms_p50", "live-sharded", "9lives"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, l := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range l {
			if !validName(m.name) || seen[m.name] {
				t.Errorf("metric name %q invalid or repeated", m.name)
			}
			seen[m.name] = true
		}
	}
	for w := range workloads {
		if !validName(w) {
			t.Errorf("workload name %q invalid", w)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	// ingest runs by hand only: its capacity figure spreads too widely on
	// a shared virtual machine for a regression bound (README.md).
	declared := map[string]bool{"ingest": true}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || declared[w.Name] {
			t.Errorf("declared workload %q not implemented, or declared twice", w.Name)
		}
		declared[w.Name] = true
	}
	if len(declared) != len(workloads) {
		t.Errorf("%d workloads declared or run by hand, %d implemented", len(declared), len(workloads))
	}
	check := func(kind string, decl []struct{ Name, Unit string }, code []metricSpec) {
		if len(decl) != len(code) {
			t.Errorf("%s: %d declared, %d reported", kind, len(decl), len(code))
			return
		}
		for i := range decl {
			if decl[i].Name != code[i].name || decl[i].Unit != code[i].unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, decl[i].Name, decl[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
