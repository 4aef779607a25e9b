package swhll

import (
	"math"
	"math/rand"
	"testing"

	"ipin/internal/graph"
	"ipin/internal/hll"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(9, 0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := New(1, 100); err == nil {
		t.Error("precision 1 accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(9, 0)
}

func TestEmptyCounter(t *testing.T) {
	c := MustNew(9, 100)
	if c.Estimate() != 0 {
		t.Fatalf("empty estimate %.3f", c.Estimate())
	}
	if c.Window() != 100 {
		t.Fatalf("window %d", c.Window())
	}
}

func TestTimeRegressionRejected(t *testing.T) {
	c := MustNew(9, 100)
	if err := c.Add(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(2, 49); err == nil {
		t.Fatal("time regression accepted")
	}
	// Equal time is fine.
	if err := c.Add(3, 50); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingWindowBehaviour(t *testing.T) {
	c := MustNew(10, 100)
	// 200 distinct items, one per tick at t=1..200.
	for i := 0; i < 200; i++ {
		if err := c.Add(uint64(i), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// The last 100 ticks (101..200) hold exactly 100 distinct items.
	got := c.Estimate()
	if got < 80 || got > 120 {
		t.Fatalf("window estimate %.1f for 100 items", got)
	}
	// Querying at a later now shrinks the window population.
	at250 := c.EstimateAt(250)
	if at250 >= got {
		t.Fatalf("estimate did not decay: %.1f at 200 vs %.1f at 250", got, at250)
	}
	// Far in the future the window is empty.
	if e := c.EstimateAt(1000); e != 0 {
		t.Fatalf("estimate %.1f long after the stream ended", e)
	}
}

func TestRepeatsRefreshRecency(t *testing.T) {
	c := MustNew(10, 50)
	// One item observed at t=1, then re-observed at t=100.
	if err := c.Add(42, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(42, 100); err != nil {
		t.Fatal(err)
	}
	// At t=100 the item is in-window thanks to the refresh.
	if e := c.EstimateAt(100); math.Abs(e-1) > 0.3 {
		t.Fatalf("estimate %.2f at 100, want ≈1", e)
	}
	// At t=160 even the refresh has aged out.
	if e := c.EstimateAt(160); e != 0 {
		t.Fatalf("estimate %.2f at 160, want 0", e)
	}
}

// naiveWindow is the keep-everything reference counter.
type naiveWindow struct {
	window int64
	obs    map[uint64]int64 // item hash → latest observation time
	regs   int
}

func (n *naiveWindow) add(hash uint64, t int64) {
	if old, ok := n.obs[hash]; !ok || t > old {
		n.obs[hash] = t
	}
}

func (n *naiveWindow) estimateAt(precision int, now int64) float64 {
	regs := hll.MustNew(precision)
	for h, t := range n.obs {
		if t > now-n.window && t <= now {
			regs.AddHash(h)
		}
	}
	return regs.Estimate()
}

// TestMatchesNaiveReference drives random forward streams into both
// implementations and requires exact agreement at the current time, the
// only query anchor the forward counter promises.
func TestMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		precision := 4 + rng.Intn(3)
		window := int64(1 + rng.Intn(300))
		c := MustNew(precision, window)
		naive := &naiveWindow{window: window, obs: map[uint64]int64{}}
		now := int64(0)
		for i := 0; i < 400; i++ {
			now += int64(rng.Intn(4))
			h := hll.Hash64(uint64(rng.Intn(150)))
			if err := c.AddHash(h, now); err != nil {
				t.Fatal(err)
			}
			naive.add(h, now)
			if i%37 == 0 {
				c.Prune() // pruning must never change results
			}
			got := c.EstimateAt(now)
			want := naive.estimateAt(precision, now)
			if got != want {
				t.Fatalf("trial %d step %d (now=%d, ω=%d): got %.6f, want %.6f",
					trial, i, now, window, got, want)
			}
		}
	}
}

func TestMergeCombinesStreams(t *testing.T) {
	a := MustNew(10, 100)
	b := MustNew(10, 100)
	both := MustNew(10, 100)
	for i := 0; i < 60; i++ {
		tm := int64(i + 1)
		if i%2 == 0 {
			if err := a.Add(uint64(i), tm); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := b.Add(uint64(i), tm); err != nil {
				t.Fatal(err)
			}
		}
		if err := both.Add(uint64(i), tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Estimate(), both.Estimate(); got != want {
		t.Fatalf("merged %.3f != combined %.3f", got, want)
	}
	// Mismatched windows refuse to merge.
	if err := a.Merge(MustNew(10, 99)); err == nil {
		t.Fatal("window mismatch accepted")
	}
	if err := a.Merge(MustNew(9, 100)); err == nil {
		t.Fatal("precision mismatch accepted")
	}
}

func TestPruneBoundsMemory(t *testing.T) {
	c := MustNew(8, 50)
	for i := 0; i < 100000; i++ {
		if err := c.Add(uint64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			c.Prune()
		}
	}
	c.Prune()
	// After pruning, only entries within the window survive; with ω=50
	// and one distinct item per tick, that is at most ~50 entries (plus
	// staircase slack).
	if n := c.EntryCount(); n > 256 {
		t.Fatalf("entry count %d not bounded by pruning", n)
	}
	if c.PayloadBytes() != c.EntryCount()*9 {
		t.Fatal("payload accounting inconsistent")
	}
	// Truthful retained bytes must also stay bounded by the window: the
	// arena self-compacts once relocation garbage dominates, so a counter
	// pruned down to ~ω entries cannot keep the whole stream's storage.
	if got := c.MemoryBytes(); got > 64<<10 {
		t.Fatalf("retained MemoryBytes = %d not bounded by pruning", got)
	}
}

func TestProfiles(t *testing.T) {
	p, err := NewProfiles(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 contacts 5 distinct nodes; node 1 contacts 2; node 2 repeats
	// the same contact.
	tm := graph.Time(1)
	for _, dst := range []graph.NodeID{1, 2, 3, 4, 5} {
		if err := p.Observe(0, dst, tm); err != nil {
			t.Fatal(err)
		}
		tm++
	}
	for _, dst := range []graph.NodeID{6, 7} {
		if err := p.Observe(1, dst, tm); err != nil {
			t.Fatal(err)
		}
		tm++
	}
	for i := 0; i < 4; i++ {
		if err := p.Observe(2, 9, tm); err != nil {
			t.Fatal(err)
		}
		tm++
	}
	if got := p.Profile(0); math.Abs(got-5) > 1 {
		t.Errorf("profile(0) = %.2f, want ≈5", got)
	}
	if got := p.Profile(1); math.Abs(got-2) > 0.5 {
		t.Errorf("profile(1) = %.2f, want ≈2", got)
	}
	if got := p.Profile(2); math.Abs(got-1) > 0.5 {
		t.Errorf("profile(2) = %.2f, want ≈1 (repeats)", got)
	}
	if got := p.Profile(5); got != 0 {
		t.Errorf("profile(5) = %.2f, want 0 (never a source)", got)
	}
	top := p.Top(2)
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Errorf("Top(2) = %v, want [0 1]", top)
	}
	if p.MemoryBytes() == 0 {
		t.Error("no memory reported")
	}
}

func TestProfilesWindowDecay(t *testing.T) {
	p, err := NewProfiles(4, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 contacts 1,2,3 at t=1..3, then nothing until t=50 when it
	// contacts only node 3 again.
	for i, dst := range []graph.NodeID{1, 2, 3} {
		if err := p.Observe(0, dst, graph.Time(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Profile(0); math.Abs(got-3) > 0.5 {
		t.Fatalf("profile = %.2f before decay, want ≈3", got)
	}
	if err := p.Observe(0, 3, 50); err != nil {
		t.Fatal(err)
	}
	if got := p.Profile(0); math.Abs(got-1) > 0.5 {
		t.Fatalf("profile = %.2f after decay, want ≈1", got)
	}
}

func TestProfilesValidation(t *testing.T) {
	if _, err := NewProfiles(-1, 9, 10); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewProfiles(5, 9, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewProfiles(5, 1, 10); err == nil {
		t.Error("bad precision accepted")
	}
	p, err := NewProfiles(5, 9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(0, 1, 5); err == nil {
		t.Error("time regression accepted")
	}
}
