package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ipin"
)

// fixtureEdges is a small cascade with strictly increasing timestamps,
// so streamed state is comparable edge-for-edge with the offline scan.
func fixtureEdges(t *testing.T, n int) []ipin.Interaction {
	t.Helper()
	net, err := ipin.Generate(ipin.GenConfig{
		Name:         "livecascade-test",
		Model:        ipin.GenCascade,
		Nodes:        200,
		Interactions: n,
		SpanTicks:    int64(n) * 10,
		Seed:         7,
		BranchMean:   1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Sort()
	edges := append([]ipin.Interaction(nil), net.Interactions...)
	for i := 1; i < len(edges); i++ {
		if edges[i].At <= edges[i-1].At {
			edges[i].At = edges[i-1].At + 1
		}
	}
	return edges
}

// offlineServer answers the same queries from an offline one-pass scan
// over a prefix of the edges — the reference the live app must match.
func offlineServer(t *testing.T, edges []ipin.Interaction, numNodes int, omega int64) *httptest.Server {
	t.Helper()
	net := ipin.NewNetwork(numNodes)
	for _, e := range edges {
		net.Add(e.Src, e.Dst, e.At)
	}
	irs, err := ipin.ComputeApprox(net, omega, ipin.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	srv := ipin.NewQueryServer(ipin.ServeConfig{CacheSize: 0})
	srv.LoadApprox(irs)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func newTestApp(t *testing.T, omega int64, every time.Duration) *app {
	t.Helper()
	reg := ipin.NewMetricsRegistry()
	a, err := newApp(appConfig{
		dir: t.TempDir(), omega: omega, nodes: 200,
		every: every, registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = a.close(ctx)
	})
	return a
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

func lines(edges []ipin.Interaction) string {
	var b bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&b, "%d %d %d\n", e.Src, e.Dst, e.At)
	}
	return b.String()
}

// TestLiveMatchesOfflineByteForByte is the subsystem's acceptance gate:
// stream a prefix over POST /ingest, force a checkpoint, and every query
// body must be byte-identical to a server computed offline over that
// same prefix; then stream the rest and match the full log.
func TestLiveMatchesOfflineByteForByte(t *testing.T) {
	edges := fixtureEdges(t, 600)
	const omega = 500
	a := newTestApp(t, omega, -1) // forced checkpoints only
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	queries := []string{
		"/spread?seeds=0,1,2",
		"/spread?seeds=5,9",
		"/influence?node=1",
		"/topk?k=4",
		fmt.Sprintf("/spreadby?seeds=0,1&deadline=%d", edges[len(edges)/2].At),
	}
	for _, cut := range []int{len(edges) / 2, len(edges)} {
		prefix := edges[:cut]
		already := 0
		if cut > len(edges)/2 {
			already = len(edges) / 2
		}
		if code, body := post(t, ts, "/ingest", lines(prefix[already:])); code != http.StatusOK {
			t.Fatalf("ingest: %d %s", code, body)
		}
		if code, body := post(t, ts, "/admin/checkpoint", ""); code != http.StatusOK {
			t.Fatalf("checkpoint: %d %s", code, body)
		}
		offline := offlineServer(t, prefix, 200, omega)
		for _, q := range queries {
			liveCode, live := get(t, ts, q)
			offCode, off := get(t, offline, q)
			if liveCode != http.StatusOK || offCode != http.StatusOK {
				t.Fatalf("%s: live %d, offline %d", q, liveCode, offCode)
			}
			if live != off {
				t.Fatalf("prefix %d, %s:\n live    %s offline %s", cut, q, live, off)
			}
		}
	}
}

// TestEdgesQueryableWithinInterval: with interval checkpoints on, a
// streamed edge must show up in query answers within one checkpoint
// interval (plus fold time), with no forced checkpoint involved.
func TestEdgesQueryableWithinInterval(t *testing.T) {
	edges := fixtureEdges(t, 400)
	const every = 50 * time.Millisecond
	a := newTestApp(t, 500, every)
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	if code, body := post(t, ts, "/ingest", lines(edges)); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	// Within a small multiple of the interval a generation must publish
	// and answer with a non-trivial spread.
	ctx, cancel := context.WithTimeout(context.Background(), 20*every)
	defer cancel()
	if err := a.srv.WaitGeneration(ctx, 1); err != nil {
		t.Fatalf("no checkpoint published within %v: %v", 20*every, err)
	}
	code, body := get(t, ts, "/spread?seeds=0,1,2")
	if code != http.StatusOK {
		t.Fatalf("/spread: %d %s", code, body)
	}
	var resp struct {
		Spread float64 `json:"spread"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Spread < 3 {
		t.Fatalf("/spread after live checkpoint = %q (err %v)", body, err)
	}
	if code, body := get(t, ts, "/stream/stats"); code != http.StatusOK || !strings.Contains(body, `"generation"`) {
		t.Fatalf("/stream/stats: %d %s", code, body)
	}
}

// TestStreamTopK: with profiles enabled, /stream/topk is 503 before
// the first checkpoint, then serves the live influencer view with the
// checkpoint's provenance and descending scores — no Close involved.
func TestStreamTopK(t *testing.T) {
	edges := fixtureEdges(t, 300)
	const omega = 500
	a, err := newApp(appConfig{
		dir: t.TempDir(), omega: omega, nodes: 200, every: -1,
		profileWindow: omega, topK: 3, retain: omega,
		registry: ipin.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = a.close(ctx)
	})
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/stream/topk"); code != http.StatusServiceUnavailable {
		t.Fatalf("/stream/topk before first checkpoint: got %d, want 503", code)
	}
	if code, body := post(t, ts, "/ingest", lines(edges)); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if code, body := post(t, ts, "/admin/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	code, body := get(t, ts, "/stream/topk")
	if code != http.StatusOK {
		t.Fatalf("/stream/topk: %d %s", code, body)
	}
	var view struct {
		Entries []struct {
			Node  int     `json:"node"`
			Score float64 `json:"score"`
		} `json:"entries"`
		CoveredEdges int64  `json:"covered_edges"`
		LastAt       int64  `json:"last_at"`
		RefreshedAt  string `json:"refreshed_at"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/stream/topk body %q: %v", body, err)
	}
	if view.CoveredEdges != int64(len(edges)) || view.LastAt != int64(edges[len(edges)-1].At) {
		t.Fatalf("provenance = (%d edges, last_at %d), want (%d, %d)",
			view.CoveredEdges, view.LastAt, len(edges), edges[len(edges)-1].At)
	}
	if len(view.Entries) == 0 || len(view.Entries) > 3 {
		t.Fatalf("got %d entries, want 1..3", len(view.Entries))
	}
	for i, e := range view.Entries {
		if e.Score <= 0 {
			t.Fatalf("entry %d: non-positive score %v", i, e.Score)
		}
		if i > 0 && e.Score > view.Entries[i-1].Score {
			t.Fatalf("scores not descending at %d: %v > %v", i, e.Score, view.Entries[i-1].Score)
		}
	}
	if view.RefreshedAt == "" {
		t.Fatal("missing refreshed_at")
	}
}

// TestIntakeSurvivesRestart: edges POSTed before a crash are served
// after reconstruction from the WAL alone (no checkpoint forced before
// the "crash").
func TestIntakeSurvivesRestart(t *testing.T) {
	edges := fixtureEdges(t, 300)
	const omega = 500
	dir := t.TempDir()
	reg := ipin.NewMetricsRegistry()
	a, err := newApp(appConfig{dir: dir, omega: omega, nodes: 200, every: -1, registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.handler())
	if code, body := post(t, ts, "/ingest", lines(edges)); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	// Orderly close persists the WAL; the new app instance replays it and
	// publishes a recovery checkpoint before serving.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.close(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	b, err := newApp(appConfig{dir: dir, omega: omega, nodes: 200, every: -1, registry: ipin.NewMetricsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.close(context.Background()) })
	ts2 := httptest.NewServer(b.handler())
	defer ts2.Close()

	offline := offlineServer(t, edges, 200, omega)
	for _, q := range []string{"/spread?seeds=0,1,2", "/topk?k=3"} {
		liveCode, live := get(t, ts2, q)
		offCode, off := get(t, offline, q)
		if liveCode != http.StatusOK || offCode != http.StatusOK {
			t.Fatalf("%s: live %d, offline %d", q, liveCode, offCode)
		}
		if live != off {
			t.Fatalf("%s after restart:\n live    %s offline %s", q, live, off)
		}
	}
}

// TestClusterModeServesMergedQueries runs the app with -shards 2 over a
// bipartite stream (sources and destinations disjoint, so scatter-gather
// answers are byte-identical to a single table) and checks the merged
// query surface against the offline reference, plus the cluster-only
// routes.
func TestClusterModeServesMergedQueries(t *testing.T) {
	const omega = 500
	edges := make([]ipin.Interaction, 600)
	for i := range edges {
		edges[i] = ipin.Interaction{
			Src: ipin.NodeID(i % 100),
			Dst: ipin.NodeID(100 + (i*7)%100),
			At:  ipin.Time(i + 1),
		}
	}
	reg := ipin.NewMetricsRegistry()
	a, err := newApp(appConfig{
		dir: t.TempDir(), omega: omega, nodes: 200, every: -1,
		registry: reg, shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.close(context.Background()) })
	ts := httptest.NewServer(a.handler())
	defer ts.Close()

	if code, body := post(t, ts, "/ingest", lines(edges)); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if code, body := post(t, ts, "/admin/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}

	// Each query twice: the second answer comes from the result cache
	// and must still match the offline bytes.
	offline := offlineServer(t, edges, 200, omega)
	for _, q := range []string{"/influence?node=3", "/spread?seeds=0,1,2", "/topk?k=3", "/stats"} {
		for pass := 0; pass < 2; pass++ {
			liveCode, live := get(t, ts, q)
			offCode, off := get(t, offline, q)
			if liveCode != offCode || live != off {
				t.Fatalf("%s (pass %d):\n cluster %d %s offline %d %s", q, pass, liveCode, live, offCode, off)
			}
		}
	}
	// Sharded serving is observable: the cache hits moved and the
	// admission queue is exported.
	if hits, ok := reg.Snapshot()["serve_cache_hits_total"].(int64); !ok || hits < 4 {
		t.Fatalf("serve_cache_hits_total = %v after four repeated queries, want >= 4", hits)
	}
	if _, metrics := get(t, ts, "/metrics"); !strings.Contains(metrics, "\nserve_queue_depth ") {
		t.Fatalf("/metrics exports no serve_queue_depth:\n%s", metrics)
	}

	code, body := get(t, ts, "/cluster/stats")
	if code != http.StatusOK {
		t.Fatalf("/cluster/stats: %d %s", code, body)
	}
	var cs struct {
		Shards int  `json:"shards"`
		Ready  bool `json:"ready"`
	}
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Shards != 2 || !cs.Ready {
		t.Fatalf("/cluster/stats = %s, want 2 ready shards", body)
	}
}

// TestReplicaFollowsAndFailsOver drives the full -listen-repl /
// -replica-of story in-process: a replica follows the primary app and
// answers queries byte-identically from read-only state; the primary
// dies; POST /admin/promote fails over; intake resumes on the replica
// and the final state matches the offline scan over everything.
func TestReplicaFollowsAndFailsOver(t *testing.T) {
	edges := fixtureEdges(t, 600)
	const omega = 500
	a := newTestApp(t, omega, -1)
	ts := httptest.NewServer(a.handler())
	defer ts.Close()
	prim, err := ipin.NewReplicationPrimary(ipin.ReplPrimaryConfig{Ingester: a.ing, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	ra, err := newReplicaApp(replicaConfig{
		dir: t.TempDir(), primary: prim.Addr(), registry: ipin.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ra.handler())
	defer rts.Close()

	if code, body := post(t, ts, "/ingest", lines(edges[:300])); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	if code, body := post(t, ts, "/admin/checkpoint", ""); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ra.rep.Position() < 300 {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d/300", ra.rep.Position())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replica needs a published checkpoint to serve from; its own
	// ingester checkpoints on the same triggers as the primary's, so
	// force one through the promote-free path: the replicated ingester.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ra.rep.Ingester().Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	queries := []string{"/spread?seeds=0,1,2", "/influence?node=1", "/topk?k=4"}
	offline := offlineServer(t, edges[:300], 200, omega)
	for _, q := range queries {
		liveCode, live := get(t, rts, q)
		offCode, off := get(t, offline, q)
		if liveCode != http.StatusOK || offCode != http.StatusOK {
			t.Fatalf("%s: replica %d, offline %d", q, liveCode, offCode)
		}
		if live != off {
			t.Fatalf("replica diverged on %s:\n replica %s offline %s", q, live, off)
		}
	}

	// Read-only surface: reload refused, intake refused pre-promotion.
	if code, _ := post(t, rts, "/admin/reload", ""); code != http.StatusForbidden {
		t.Fatalf("/admin/reload on replica: %d, want 403", code)
	}
	if code, _ := post(t, rts, "/ingest", "1 2 3\n"); code != http.StatusServiceUnavailable {
		t.Fatalf("/ingest on un-promoted replica: %d, want 503", code)
	}

	// Primary dies; operator promotes.
	prim.Close()
	if err := a.close(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, rts, "/admin/promote", ""); code != http.StatusOK {
		t.Fatalf("promote: %d %s", code, body)
	}
	// Intake has moved here: stream the rest and match the full log.
	if code, body := post(t, rts, "/ingest", lines(edges[300:])); code != http.StatusOK {
		t.Fatalf("post-promotion ingest: %d %s", code, body)
	}
	if err := ra.rep.Ingester().Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	offlineFull := offlineServer(t, edges, 200, omega)
	for _, q := range queries {
		_, live := get(t, rts, q)
		_, off := get(t, offlineFull, q)
		if live != off {
			t.Fatalf("promoted replica diverged on %s:\n replica %s offline %s", q, live, off)
		}
	}
	if err := ra.close(ctx); err != nil {
		t.Fatal(err)
	}
}
