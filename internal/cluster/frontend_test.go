package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/serve"
)

// substreamSummaries computes, offline, the summaries each of two
// shards would publish for edges under the default slot map.
func substreamSummaries(t *testing.T, edges []graph.Interaction) [2]*core.ApproxSummaries {
	t.Helper()
	slots := DefaultSlotMap(2)
	var out [2]*core.ApproxSummaries
	for sh := range out {
		l := graph.New(testNodes)
		for _, e := range edges {
			if slots.ShardOf(e.Src) == sh {
				l.Add(e.Src, e.Dst, e.At)
			}
		}
		s, err := core.ComputeApprox(l, testOmega, core.DefaultPrecision)
		if err != nil {
			t.Fatal(err)
		}
		out[sh] = s
	}
	return out
}

// TestFrontendCacheFollowsGeneration: a query misses, then hits at the
// same cluster generation; one shard's publish moves the generation and
// the same query misses again, answering the new state byte for byte
// as a cache-less server over the same gather does.
func TestFrontendCacheFollowsGeneration(t *testing.T) {
	edges := bipartite(testEdges, 4, DefaultSlotMap(2), 0)
	full, half := substreamSummaries(t, edges), substreamSummaries(t, edges[:testEdges/2])
	reg := obs.NewRegistry()
	g := newGather(2, newMetrics(reg, 2))
	g.Publish(0, half[0])
	g.Publish(1, full[1])
	fe := NewFrontend(g).Handler()
	uncached := serve.NewOver(serve.Config{}, g.current).Handler()

	counts := func() (hits, misses int64) {
		snap := reg.Snapshot()
		return snap[serve.MetricCacheHits].(int64), snap[serve.MetricCacheMisses].(int64)
	}
	ask := func(wantHits, wantMisses int64) string {
		t.Helper()
		const q = "/spread?seeds=0,1,2,3,4,5,6,7"
		code, body := get(t, fe, q)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, code, body)
		}
		if _, want := get(t, uncached, q); body != want {
			t.Fatalf("generation %d: cached frontend %s cache-less server %s", g.Generation(), body, want)
		}
		if hits, misses := counts(); hits != wantHits || misses != wantMisses {
			t.Fatalf("generation %d: hits=%d misses=%d, want %d and %d", g.Generation(), hits, misses, wantHits, wantMisses)
		}
		return body
	}
	before := ask(0, 1)
	ask(1, 1)
	g.Publish(0, full[0])
	if after := ask(1, 2); after == before {
		t.Fatalf("shard 0's publish did not change the answer: %s", after)
	}
	ask(2, 2)
}

// TestFrontendShedsBurst: the frontend's admission control holds over a
// gather too. A burst of expensive queries against one inflight slot
// and one queue place is shed with 429/503, and the wait queue never
// reads above its bound.
func TestFrontendShedsBurst(t *testing.T) {
	edges := bipartite(testEdges, 5, DefaultSlotMap(2), 0)
	parts := substreamSummaries(t, edges)
	reg := obs.NewRegistry()
	g := newGather(2, newMetrics(nil, 2))
	g.Publish(0, parts[0])
	g.Publish(1, parts[1])
	srv := serve.NewOver(serve.Config{MaxInflight: 1, QueueDepth: 1, Registry: reg}, g.current)
	h := srv.Handler()

	const burst = 32
	start := make(chan struct{})
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Distinct k: no two requests share a cache key or a flight.
			codes[i], _ = get(t, h, fmt.Sprintf("/topk?k=%d", 1+i))
		}(i)
	}
	done := make(chan struct{})
	var peak int64
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if d := srv.QueueDepthNow(); d > peak {
				peak = d
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	close(start)
	wg.Wait()
	close(done)
	<-sampled

	var ok, shed429, shed503 int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed429++
		case http.StatusServiceUnavailable:
			shed503++
		default:
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if ok == 0 || shed429+shed503 == 0 {
		t.Fatalf("burst of %d: %d ok, %d shed 429, %d shed 503 — want some answered and some shed", burst, ok, shed429, shed503)
	}
	if peak > 1 {
		t.Fatalf("queue depth read %d, above its bound of 1", peak)
	}
	snap := reg.Snapshot()
	if got := snap[serve.MetricShed+`{reason="queue_full"}`]; got != int64(shed429) {
		t.Errorf("queue_full shed counter = %v, want %d", got, shed429)
	}
}
