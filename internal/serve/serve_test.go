package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
)

// testLog is the chain 0→1→2→3 inside the window plus one interaction
// outside it, the same fixture the oracleserver tests use.
func testLog(t *testing.T) *graph.Log {
	t.Helper()
	l := graph.New(5)
	l.Add(0, 1, 100)
	l.Add(1, 2, 200)
	l.Add(2, 3, 300)
	l.Add(3, 4, 9000)
	l.Sort()
	return l
}

func testApprox(t *testing.T) *core.ApproxSummaries {
	t.Helper()
	s, err := core.ComputeApprox(testLog(t), 500, core.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.LoadApprox(testApprox(t))
	return s
}

func get(t *testing.T, h http.Handler, path string) (int, http.Header, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, string(body)
}

func TestRoutes(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	for _, path := range []string{
		"/influence?node=0",
		"/spread?seeds=0,1",
		"/topk?k=2",
		"/spreadby?seeds=0&deadline=400",
		"/spreadwindow?seeds=0&at=100",
		"/spreadwindow?seeds=0,1&at=100&horizon=250",
		"/stats",
	} {
		code, _, body := get(t, h, path)
		if code != http.StatusOK {
			t.Errorf("%s: status %d (%s)", path, code, body)
		}
		if !json.Valid([]byte(body)) || !strings.HasSuffix(body, "\n") {
			t.Errorf("%s: not a JSON line: %q", path, body)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 16})
	h := s.Handler()
	cases := []struct {
		path string
		code int
	}{
		{"/influence?node=banana", http.StatusBadRequest},
		{"/influence?node=9999", http.StatusNotFound},
		{"/spread", http.StatusBadRequest},
		{"/spread?seeds=0,zzz", http.StatusBadRequest},
		{"/topk?k=0", http.StatusBadRequest},
		{"/spreadby?seeds=0&deadline=x", http.StatusBadRequest},
		{"/spreadwindow?seeds=0", http.StatusBadRequest},
		{"/spreadwindow?seeds=0&at=x", http.StatusBadRequest},
		{"/spreadwindow?seeds=0&at=100&horizon=0", http.StatusBadRequest},
		{"/admin/reload", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		code, _, body := get(t, h, c.path)
		if code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.path, code, c.code, body)
		}
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" || e.Status != c.code {
			t.Errorf("%s: not a JSON error body: %q", c.path, body)
		}
	}
}

func TestNoSnapshotIs503(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, path := range []string{"/influence?node=0", "/spread?seeds=0", "/topk?k=1", "/spreadby?seeds=0&deadline=1", "/spreadwindow?seeds=0&at=1", "/stats"} {
		if code, _, _ := get(t, h, path); code != http.StatusServiceUnavailable {
			t.Errorf("%s before load: status %d, want 503", path, code)
		}
	}
}

// TestByteIdentity pins the acceptance property: every query body is
// byte-identical with the cache on or off, for both summary kinds — and
// repeated queries (cache hits) return the same bytes again.
func TestByteIdentity(t *testing.T) {
	paths := []string{
		"/influence?node=0",
		"/influence?node=4",
		"/spread?seeds=0,1,2",
		"/spread?seeds=2,1,0,1", // canonicalizes to 0,1,2
		"/topk?k=3",
		"/spreadby?seeds=0,3&deadline=400",
		"/stats",
	}
	exact := core.ComputeExact(testLog(t), 500)
	for _, kind := range []string{"approx", "exact"} {
		var want map[string]string
		for _, cacheSize := range []int{0, 64} {
			s := New(Config{CacheSize: cacheSize})
			if kind == "approx" {
				s.LoadApprox(testApprox(t))
			} else {
				s.LoadExact(exact)
			}
			h := s.Handler()
			for round := 0; round < 2; round++ { // second round hits the cache
				got := make(map[string]string, len(paths))
				for _, p := range paths {
					code, _, body := get(t, h, p)
					if code != http.StatusOK {
						t.Fatalf("%s %s: status %d (%s)", kind, p, code, body)
					}
					got[p] = body
				}
				if want == nil {
					want = got
					continue
				}
				for _, p := range paths {
					if got[p] != want[p] {
						t.Errorf("%s %s (cache=%d round=%d): body %q != %q",
							kind, p, cacheSize, round, got[p], want[p])
					}
				}
			}
		}
	}
}

// TestSpreadWindow pins the window route: the body echoes the resolved
// window, horizon defaults to the snapshot's omega, the answer matches
// the summaries' own window estimate, and an exact snapshot answers 409
// (its maps hold only earliest influence times, not the versioned
// staircases a window query needs).
func TestSpreadWindow(t *testing.T) {
	sum := testApprox(t)
	s := New(Config{CacheSize: 16})
	s.LoadApprox(sum)
	h := s.Handler()

	code, _, body := get(t, h, "/spreadwindow?seeds=0&at=100&horizon=150")
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, body)
	}
	var v struct {
		At      int64   `json:"at"`
		Horizon int64   `json:"horizon"`
		Spread  float64 `json:"spread"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.At != 100 || v.Horizon != 150 {
		t.Fatalf("window echoed as at=%d horizon=%d, want 100 and 150", v.At, v.Horizon)
	}
	if want := sum.SpreadEstimateWindow([]graph.NodeID{0}, 100, 150); v.Spread != want {
		t.Fatalf("spread %v, want the summaries' own estimate %v", v.Spread, want)
	}

	// A bare at resolves horizon to the snapshot omega — one jumping-
	// window position of the width the summaries were built for.
	code, _, body = get(t, h, "/spreadwindow?seeds=0&at=100")
	if code != http.StatusOK {
		t.Fatalf("default-horizon status %d (%s)", code, body)
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Horizon != sum.Omega {
		t.Fatalf("default horizon %d, want omega %d", v.Horizon, sum.Omega)
	}

	se := New(Config{})
	se.LoadExact(core.ComputeExact(testLog(t), 500))
	code, _, body = get(t, se.Handler(), "/spreadwindow?seeds=0&at=100")
	if code != http.StatusConflict {
		t.Fatalf("exact snapshot: status %d (%s), want 409", code, body)
	}
}

// TestCanonicalSeeds pins that equivalent seed-set spellings share one
// cache entry and one body.
func TestCanonicalSeeds(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{CacheSize: 16, Registry: reg})
	h := s.Handler()
	_, _, a := get(t, h, "/spread?seeds=2,1,0")
	_, _, b := get(t, h, "/spread?seeds=0,1,2,2,1")
	if a != b {
		t.Fatalf("equivalent seed sets differ: %q vs %q", a, b)
	}
	if !strings.Contains(a, `"seeds":[0,1,2]`) {
		t.Fatalf("response does not echo the canonical seed set: %q", a)
	}
	snap := reg.Snapshot()
	if hits, misses := snap[MetricCacheHits], snap[MetricCacheMisses]; hits != int64(1) || misses != int64(1) {
		t.Fatalf("hits=%v misses=%v, want 1 and 1", hits, misses)
	}
}

func TestAdmissionControl(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		MaxInflight:    1,
		QueueDepth:     1,
		RequestTimeout: 50 * time.Millisecond,
		Registry:       reg,
	})
	h := s.Handler()

	// Occupy the single inflight slot directly.
	if err := s.lim.acquire(context.Background(), time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	// One request fits in the queue and times out with 503.
	var wg sync.WaitGroup
	wg.Add(1)
	var queuedCode int
	var queuedHeader http.Header
	go func() {
		defer wg.Done()
		queuedCode, queuedHeader, _ = get(t, h, "/stats")
	}()
	// Wait for it to be queued, then overflow the queue: immediate 429.
	deadline := time.Now().Add(time.Second)
	for s.lim.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code, header, body := get(t, h, "/stats")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", code, body)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	wg.Wait()
	if queuedCode != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503", queuedCode)
	}
	if queuedHeader.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	s.lim.release()

	// Capacity restored: requests flow again.
	if code, _, _ := get(t, h, "/stats"); code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", code)
	}
	snap := reg.Snapshot()
	if snap[MetricShed+`{reason="queue_full"}`] != int64(1) || snap[MetricShed+`{reason="deadline"}`] != int64(1) {
		t.Fatalf("shed counters wrong: %v", snap)
	}
}

// TestReload drives the snapshot-file path: serve one snapshot, replace
// the file, POST /admin/reload, and watch the answers, generation, and
// cache change — all while readers hammer the server (exercised under
// -race in CI).
func TestReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "irs.bin")

	writeSnapshot := func(s *core.ApproxSummaries) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeSnapshot(testApprox(t))

	reg := obs.NewRegistry()
	s := New(Config{CacheSize: 16, SnapshotPath: path, Registry: reg})
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation after first load = %d, want 1", g)
	}
	_, _, before := get(t, h, "/influence?node=0")

	// Readers hammer every route while the snapshot swaps underneath.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/influence?node=0", "/spread?seeds=0,1,2,3", "/stats"} {
					if code, _, body := get(t, h, p); code != http.StatusOK {
						t.Errorf("%s during reload: %d (%s)", p, code, body)
						return
					}
				}
			}
		}()
	}

	// New snapshot: a denser network where node 0 reaches everyone.
	l := graph.New(5)
	l.Add(0, 1, 100)
	l.Add(0, 2, 110)
	l.Add(0, 3, 120)
	l.Add(0, 4, 130)
	l.Sort()
	s2, err := core.ComputeApprox(l, 500, core.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(s2)
	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/reload: %d (%s)", rec.Code, rec.Body)
	}
	close(stop)
	wg.Wait()

	if g := s.Generation(); g != 2 {
		t.Fatalf("generation after reload = %d, want 2", g)
	}
	_, _, after := get(t, h, "/influence?node=0")
	if before == after {
		t.Fatalf("reload did not change the served snapshot: %q", after)
	}
	var v struct{ Influence float64 }
	if err := json.Unmarshal([]byte(after), &v); err != nil || v.Influence < 3 {
		t.Fatalf("post-reload influence of node 0 = %q, want ≈4", after)
	}
	if got := reg.Snapshot()[MetricReloads]; got != int64(2) {
		t.Fatalf("reload counter = %v, want 2", got)
	}
}

// TestReloadErrors pins that a failed reload keeps the old snapshot.
func TestReloadErrors(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 4})
	if err := s.Reload(); err == nil {
		t.Fatal("Reload without SnapshotPath should fail")
	}
	s2 := New(Config{SnapshotPath: "/nonexistent/irs.bin"})
	s2.LoadApprox(testApprox(t))
	if err := s2.Reload(); err == nil {
		t.Fatal("Reload of missing file should fail")
	}
	if code, _, _ := get(t, s2.Handler(), "/stats"); code != http.StatusOK {
		t.Fatal("failed reload broke the serving snapshot")
	}
}

// TestReadOnlyRefusesReload: a replica's read-only view refuses the
// mutating admin surface — snapshots arrive only through the in-process
// publish path — while query routes keep answering.
func TestReadOnlyRefusesReload(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 4, SnapshotPath: "/nonexistent/irs.bin", ReadOnly: true})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("/admin/reload on a read-only server: %d, want 403", rec.Code)
	}
	if code, _, _ := get(t, h, "/influence?node=0"); code != http.StatusOK {
		t.Fatal("read-only server stopped answering queries")
	}
	// The publish path still works: that is how replication feeds it.
	s.LoadApprox(testApprox(t))
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation after publish = %d, want 2", g)
	}
}
