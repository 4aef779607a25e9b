// Command benchserve measures the serving layer (internal/serve) on a
// generated interaction log and writes the results as JSON
// (BENCH_serve.json at the repo root, by convention). It exercises the
// three mechanisms the layer stacks on top of the oracle:
//
//   - result cache: query throughput cold (cache disabled) versus warm
//     (a bounded repeated-seed-set workload served from cached bytes) —
//     the run fails unless the cached path clears -min-speedup;
//   - byte identity: every body in the workload is replayed with the
//     cache on and off and must match exactly;
//   - load shedding: a burst of expensive queries against a tiny
//     admission window, verifying the wait queue stays bounded and the
//     overflow is shed with 429/503 instead of queueing without limit.
//
// Requests drive the exact http.Handler the server mounts (through
// httptest recorders, no sockets), so the numbers include routing, cache
// lookup, computation, and JSON rendering — everything but the kernel's
// network stack.
//
// The report records the host's CPU count and GOMAXPROCS alongside, the
// same convention as BENCH_parallel.json: cached-vs-cold is mostly
// CPU-architecture-independent, but the concurrent sections only show
// contention when the host has real cores to contend on.
//
// Usage:
//
//	benchserve -edges 200000 -queries 5000 -out BENCH_serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/serve"
)

type report struct {
	Edges         int     `json:"edges"`
	Nodes         int     `json:"nodes"`
	OmegaTicks    int64   `json:"omega_ticks"`
	SeedSets      int     `json:"distinct_seed_sets"`
	SeedsPerSet   int     `json:"seeds_per_set"`
	TopkEvery     int     `json:"topk_every"`
	Queries       int     `json:"queries"`
	Clients       int     `json:"clients"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Note          string  `json:"note"`
	ColdQPS       float64 `json:"cold_qps"`
	ColdP50Ms     float64 `json:"cold_p50_ms"`
	ColdP99Ms     float64 `json:"cold_p99_ms"`
	CachedQPS     float64 `json:"cached_qps"`
	CachedP50Ms   float64 `json:"cached_p50_ms"`
	CachedP99Ms   float64 `json:"cached_p99_ms"`
	CacheSpeedup  float64 `json:"cache_speedup"`
	BytesIdentity bool    `json:"bytes_identical_across_configs"`
	Overload      struct {
		Requests     int   `json:"requests"`
		MaxInflight  int   `json:"max_inflight"`
		QueueDepth   int   `json:"queue_depth"`
		OK           int   `json:"ok_200"`
		Shed429      int   `json:"shed_429"`
		Shed503      int   `json:"shed_503"`
		PeakQueueObs int64 `json:"peak_queue_depth_observed"`
	} `json:"overload"`
}

func main() {
	var (
		edges      = flag.Int("edges", 200_000, "interactions in the generated log")
		nodes      = flag.Int("nodes", 20_000, "nodes in the generated log")
		window     = flag.Float64("window", 1, "window as % of the time span")
		queries    = flag.Int("queries", 5_000, "queries per throughput phase")
		seedSets   = flag.Int("seed-sets", 64, "distinct seed sets in the workload (cache working set)")
		seedsPer   = flag.Int("seeds-per-set", 32, "seeds per set")
		topkEvery  = flag.Int("topk-every", 16, "every Nth workload slot is a small /topk query (0 disables)")
		clients    = flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines")
		minSpeedup = flag.Float64("min-speedup", 5, "fail unless cached/cold QPS ratio reaches this")
		out        = flag.String("out", "BENCH_serve.json", "output JSON path")
	)
	flag.Parse()

	l, err := gen.Generate(gen.Config{
		Name:         "benchserve",
		Model:        gen.ModelUniform,
		Nodes:        *nodes,
		Interactions: *edges,
		SpanTicks:    int64(*edges) * 4,
		Seed:         1,
	})
	if err != nil {
		fatal(err)
	}
	omega := l.WindowFromPercent(*window)
	sum, err := core.ComputeApprox(l, omega, core.DefaultPrecision)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchserve: %d nodes, %d interactions, ω=%d (NumCPU=%d)\n",
		l.NumNodes, l.Len(), omega, runtime.NumCPU())

	// The workload: /spread over a bounded set of distinct seed sets, with
	// every topk-every-th slot a small /topk — the shape a dashboard or an
	// A/B harness produces. Repeats dominate, so the cache can do its job;
	// the /topk slots are where it pays most, because greedy selection
	// recomputed per query is orders of magnitude above a cache hit.
	// Deterministic (seeded generator elsewhere, plain arithmetic here) so
	// every configuration sees the same paths.
	paths := make([]string, *seedSets)
	for i := range paths {
		if *topkEvery > 0 && i%*topkEvery == *topkEvery-1 {
			paths[i] = fmt.Sprintf("/topk?k=%d", 2+i%7)
			continue
		}
		seeds := make([]string, *seedsPer)
		for j := range seeds {
			seeds[j] = fmt.Sprint((i*7919 + j*104729) % l.NumNodes)
		}
		paths[i] = "/spread?seeds=" + join(seeds)
	}

	rep := report{
		Edges:       l.Len(),
		Nodes:       l.NumNodes,
		OmegaTicks:  omega,
		SeedSets:    *seedSets,
		SeedsPerSet: *seedsPer,
		TopkEvery:   *topkEvery,
		Queries:     *queries,
		Clients:     *clients,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Note: "workload mixes repeated /spread seed sets with small /topk queries; cold = cache disabled (every query recomputes); cached = LRU over rendered " +
			"bodies with the same workload; identical bodies verified with the cache on and off",
	}

	newServer := func(cacheSize int) *serve.Server {
		s := serve.New(serve.Config{CacheSize: cacheSize, MaxInflight: -1})
		s.LoadApprox(sum)
		return s
	}

	// Phase 1: cold vs cached throughput on the same handler shape.
	cold := newServer(0)
	coldD, coldLat := drive(cold.Handler(), paths, *queries, *clients)
	cached := newServer(4096)
	cachedD, cachedLat := drive(cached.Handler(), paths, *queries, *clients)
	rep.ColdQPS = float64(*queries) / coldD.Seconds()
	rep.CachedQPS = float64(*queries) / cachedD.Seconds()
	rep.CacheSpeedup = rep.CachedQPS / rep.ColdQPS
	rep.ColdP50Ms = percentileMs(coldLat, 50)
	rep.ColdP99Ms = percentileMs(coldLat, 99)
	rep.CachedP50Ms = percentileMs(cachedLat, 50)
	rep.CachedP99Ms = percentileMs(cachedLat, 99)
	fmt.Fprintf(os.Stderr, "benchserve: cold %.0f qps (p50 %.2fms p99 %.2fms), cached %.0f qps (p50 %.3fms p99 %.3fms), speedup %.1fx\n",
		rep.ColdQPS, rep.ColdP50Ms, rep.ColdP99Ms, rep.CachedQPS, rep.CachedP50Ms, rep.CachedP99Ms, rep.CacheSpeedup)

	// Phase 2: byte identity. Replay every workload path (plus the other
	// routes) with the cache off and on and compare bodies.
	checkPaths := append([]string{}, paths...)
	checkPaths = append(checkPaths, "/influence?node=0", "/topk?k=8", "/spreadby?seeds=1,2,3&deadline="+fmt.Sprint(omega), "/stats")
	rep.BytesIdentity = true
	var want []string
	for _, cacheSize := range []int{0, 4096} {
		s := newServer(cacheSize)
		h := s.Handler()
		bodies := make([]string, len(checkPaths))
		for i, p := range checkPaths {
			code, body := hit(h, http.MethodGet, p)
			if code != http.StatusOK {
				fatal(fmt.Errorf("identity check: %s -> %d %s", p, code, body))
			}
			bodies[i] = body
		}
		if want == nil {
			want = bodies
			continue
		}
		for i := range bodies {
			if bodies[i] != want[i] {
				rep.BytesIdentity = false
				fmt.Fprintf(os.Stderr, "benchserve: MISMATCH cache=%d %s:\n  %q\n  %q\n",
					cacheSize, checkPaths[i], bodies[i], want[i])
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchserve: byte identity across configs: %v\n", rep.BytesIdentity)

	// Phase 3: overload. Expensive /topk queries (distinct k values, so
	// neither the cache nor single-flight absorbs them) against a tiny
	// admission window: most of the burst must shed, not queue.
	const maxInflight, queueDepth = 2, 4
	over := serve.New(serve.Config{
		CacheSize:      0,
		MaxInflight:    maxInflight,
		QueueDepth:     queueDepth,
		RequestTimeout: 200 * time.Millisecond,
	})
	over.LoadApprox(sum)
	oh := over.Handler()
	burst := 4 * (*clients) * (maxInflight + queueDepth)
	var ok200, shed429, shed503 atomic.Int64
	var peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 2 + i%64
			if d := over.QueueDepthNow(); d > peak.Load() {
				peak.Store(d) // racy max, observational only; the hard bound is asserted below
			}
			code, _ := hit(oh, http.MethodGet, fmt.Sprintf("/topk?k=%d", k))
			switch code {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				shed429.Add(1)
			case http.StatusServiceUnavailable:
				shed503.Add(1)
			default:
				fatal(fmt.Errorf("overload: unexpected status %d", code))
			}
		}(i)
	}
	wg.Wait()
	rep.Overload.Requests = burst
	rep.Overload.MaxInflight = maxInflight
	rep.Overload.QueueDepth = queueDepth
	rep.Overload.OK = int(ok200.Load())
	rep.Overload.Shed429 = int(shed429.Load())
	rep.Overload.Shed503 = int(shed503.Load())
	rep.Overload.PeakQueueObs = peak.Load()
	fmt.Fprintf(os.Stderr, "benchserve: overload %d requests -> %d ok, %d shed 429, %d shed 503 (peak queue %d)\n",
		burst, rep.Overload.OK, rep.Overload.Shed429, rep.Overload.Shed503, rep.Overload.PeakQueueObs)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(f, rep); err != nil {
		fatal(err)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "benchserve: wrote %s\n", *out)

	switch {
	case !rep.BytesIdentity:
		fatal(fmt.Errorf("response bodies diverged with the cache on and off"))
	case rep.CacheSpeedup < *minSpeedup:
		fatal(fmt.Errorf("cache speedup %.2fx below the %.1fx floor", rep.CacheSpeedup, *minSpeedup))
	case rep.Overload.Shed429 == 0:
		fatal(fmt.Errorf("overload burst produced no 429s: queue not bounded"))
	case rep.Overload.PeakQueueObs > queueDepth:
		fatal(fmt.Errorf("observed queue depth %d exceeds the %d bound", rep.Overload.PeakQueueObs, queueDepth))
	}
}

// drive replays total queries round-robin over paths from clients
// concurrent goroutines and returns the wall-clock duration plus the
// per-request latencies (one entry per query, order unspecified).
func drive(h http.Handler, paths []string, total, clients int) (time.Duration, []time.Duration) {
	lat := make([]time.Duration, total)
	var next atomic.Int64
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
				t0 := time.Now()
				code, body := hit(h, http.MethodGet, paths[i%len(paths)])
				lat[i] = time.Since(t0)
				if code != http.StatusOK {
					fatal(fmt.Errorf("drive: %s -> %d %s", paths[i%len(paths)], code, body))
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lat
}

// percentileMs returns the p-th percentile of the latencies in
// milliseconds (nearest-rank on the sorted copy).
func percentileMs(lat []time.Duration, p int) float64 {
	s := append([]time.Duration{}, lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}

// hit performs one in-process request against the handler.
func hit(h http.Handler, method, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec.Code, rec.Body.String()
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

func writeJSON(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchserve: %v\n", err)
	os.Exit(1)
}
