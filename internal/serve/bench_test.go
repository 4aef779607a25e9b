package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
)

// BenchmarkCacheSpeedup replays a dashboard's repeated queries against
// one approx snapshot of 50,000 uniform edges over 4,000 nodes (ω = 1%
// of the span): 64 distinct paths, each a /spread over 32 seeds except
// every 16th, a small /topk, sent 1,000 at a time by 2×GOMAXPROCS
// clients through the handler, once with the result cache off and once
// with 4,096 entries, each server fresh per iteration. It reports
// cached over cold throughput as speedup; CI's perf job holds it at 5
// or more. Every answer must be 200, and after the replay each route's
// body must be the same from both servers.
func BenchmarkCacheSpeedup(b *testing.B) {
	const queries = 1000
	l, err := gen.Generate(gen.Config{
		Name: "uniform", Model: gen.ModelUniform, Nodes: 4000,
		Interactions: 50_000, SpanTicks: 200_000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	omega := l.WindowFromPercent(1)
	sum, err := core.ComputeApprox(l, omega, core.DefaultPrecision)
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 64)
	for i := range paths {
		if i%16 == 15 {
			paths[i] = fmt.Sprintf("/topk?k=%d", 2+i%7)
			continue
		}
		seeds := make([]string, 32)
		for j := range seeds {
			seeds[j] = fmt.Sprint((i*7919 + j*104729) % l.NumNodes)
		}
		paths[i] = "/spread?seeds=" + strings.Join(seeds, ",")
	}
	// The identity check also covers the routes the workload leaves out.
	checked := append(paths[:len(paths):len(paths)], "/influence?node=0", "/topk?k=8",
		fmt.Sprintf("/spreadby?seeds=1,2,3&deadline=%d", omega), "/stats")
	server := func(cacheSize int) http.Handler {
		s := New(Config{CacheSize: cacheSize, MaxInflight: -1})
		s.LoadApprox(sum)
		return s.Handler()
	}
	clients := 2 * runtime.GOMAXPROCS(0)
	var cold, cached time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coldH, cachedH := server(0), server(4096)
		b.StartTimer()
		cold += drive(b, coldH, paths, queries, clients)
		cached += drive(b, cachedH, paths, queries, clients)
		b.StopTimer()
		for _, p := range checked {
			wantCode, _, want := get(b, coldH, p)
			gotCode, _, got := get(b, cachedH, p)
			if wantCode != http.StatusOK || gotCode != http.StatusOK || got != want {
				b.Fatalf("%s: cached %d %q, cold %d %q", p, gotCode, got, wantCode, want)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(cold)/float64(cached), "speedup")
}

// drive sends total requests round-robin over paths from clients
// goroutines and returns the wall time they took.
func drive(b *testing.B, h http.Handler, paths []string, total, clients int) time.Duration {
	var next atomic.Int64
	var failed atomic.Pointer[string]
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
				if rec.Code != http.StatusOK {
					msg := fmt.Sprintf("%s: status %d (%s)", paths[i%len(paths)], rec.Code, rec.Body)
					failed.CompareAndSwap(nil, &msg)
				}
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	if msg := failed.Load(); msg != nil {
		b.Fatal(*msg)
	}
	return d
}
