package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipin/internal/obs"
)

func testCache(max int, reg *obs.Registry) *cache {
	return newCache(max, newMetrics(reg))
}

// later is a request deadline no test reaches.
func later() time.Time { return time.Now().Add(time.Minute) }

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := testCache(2, reg)
	val := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} { // c evicts a
		if _, err := c.do(ctx, later(), k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// b then c are resident; a recomputes.
	recomputed := false
	if _, err := c.do(ctx, later(), "a", func() ([]byte, error) { recomputed = true; return []byte("a"), nil }); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("evicted key served from cache")
	}
	snap := reg.Snapshot()
	if snap[MetricCacheEvicted].(int64) < 1 {
		t.Fatalf("no evictions recorded: %v", snap)
	}
	// "a" re-inserted evicted "b"; "c" must still be a hit.
	hit := true
	if _, err := c.do(ctx, later(), "c", func() ([]byte, error) { hit = false; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("most-recently-used entry was evicted")
	}
}

// TestCacheSingleFlight: N concurrent requests for one key run the
// compute function exactly once and all see its bytes.
func TestCacheSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	c := testCache(8, reg)
	var computes atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := c.do(context.Background(), later(), "k", func() ([]byte, error) {
				computes.Add(1)
				<-gate // hold every follower in the wait path
				return []byte("body"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = body
		}(i)
	}
	// Let followers pile up, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, b := range results {
		if string(b) != "body" {
			t.Fatalf("request %d got %q", i, b)
		}
	}
	snap := reg.Snapshot()
	if snap[MetricCacheMisses] != int64(1) {
		t.Fatalf("misses = %v, want 1", snap[MetricCacheMisses])
	}
}

// TestCacheSingleFlightAbandon: a follower whose context expires, or
// whose request deadline passes, leaves without the result; the
// leader's entry stays valid for others.
func TestCacheSingleFlightAbandon(t *testing.T) {
	c := testCache(8, obs.NewRegistry())
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _ = c.do(context.Background(), later(), "k", func() ([]byte, error) {
			<-gate
			return []byte("late"), nil
		})
	}()
	// Wait until the leader's entry is registered.
	for c.len() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.do(ctx, later(), "k", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoning follower: err = %v, want DeadlineExceeded", err)
	}
	if _, err := c.do(context.Background(), time.Now().Add(5*time.Millisecond), "k", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower past its deadline: err = %v, want DeadlineExceeded", err)
	}
	close(gate)
	<-leaderDone
	body, err := c.do(context.Background(), later(), "k", func() ([]byte, error) {
		return nil, fmt.Errorf("should have been cached")
	})
	if err != nil || string(body) != "late" {
		t.Fatalf("after abandon: %q, %v", body, err)
	}
}

// TestCacheErrorNotCached: failures propagate to the waiters of that
// flight but are not stored.
func TestCacheErrorNotCached(t *testing.T) {
	c := testCache(8, obs.NewRegistry())
	boom := errors.New("boom")
	if _, err := c.do(context.Background(), later(), "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := c.len(); n != 0 {
		t.Fatalf("failed entry cached (%d entries)", n)
	}
	body, err := c.do(context.Background(), later(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("retry after error: %q, %v", body, err)
	}
}

func TestCachePurge(t *testing.T) {
	c := testCache(8, obs.NewRegistry())
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.do(ctx, later(), fmt.Sprintf("k%d", i), func() ([]byte, error) { return []byte("v"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.purge()
	if n := c.len(); n != 0 {
		t.Fatalf("purge left %d entries", n)
	}
	// nil cache (disabled) purge must be a no-op, not a panic.
	var nilCache *cache
	nilCache.purge()
}
