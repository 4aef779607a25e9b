package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/serve"
)

// testLog builds a deterministic interaction stream with strictly
// increasing timestamps.
func testLog(rng *rand.Rand, n, m int) []graph.Interaction {
	edges := make([]graph.Interaction, m)
	at := graph.Time(0)
	for i := range edges {
		at += graph.Time(1 + rng.Int63n(3))
		edges[i] = graph.Interaction{
			Src: graph.NodeID(rng.Intn(n)),
			Dst: graph.NodeID(rng.Intn(n)),
			At:  at,
		}
	}
	return edges
}

// uniformLog is the uniform stream the CI-shaped tests run on: edges
// interactions over nodes nodes, about four ticks per edge, seed 1, with
// timestamps made strictly increasing so identity holds edge for edge
// whatever the arrival order.
func uniformLog(tb testing.TB, nodes, edges int) *graph.Log {
	tb.Helper()
	l, err := gen.Generate(gen.Config{
		Name: "uniform", Model: gen.ModelUniform, Nodes: nodes,
		Interactions: edges, SpanTicks: 4 * int64(edges), Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	l.Detie()
	return l
}

// offlineBytes runs the offline one-pass scan over the edges and
// returns the canonical IRX1 encoding.
func offlineBytes(t *testing.T, edges []graph.Interaction, numNodes int, omega int64, precision int) []byte {
	t.Helper()
	n := numNodes
	for _, e := range edges {
		if m := int(max(e.Src, e.Dst)) + 1; m > n {
			n = m
		}
	}
	l := &graph.Log{NumNodes: n, Interactions: edges}
	s, err := core.ComputeApprox(l, omega, precision)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func summaryBytes(t *testing.T, s *core.ApproxSummaries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestCheckpointIdentity: push an ordered stream, force a
// checkpoint, and the published summaries — and the checkpoint.irx file
// — are byte-identical to the offline ComputeApprox over the same
// edges.
func TestIngestCheckpointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := testLog(rng, 40, 700)
	dir := t.TempDir()
	var published *core.ApproxSummaries
	in, err := New(Config{
		Dir:             dir,
		Omega:           25,
		Precision:       4,
		ChunkEdges:      64,
		CheckpointEvery: -1, // forced checkpoints only: deterministic
		SyncEvery:       -1,
		Publish:         func(s *core.ApproxSummaries) { published = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if published == nil {
		t.Fatal("nothing published")
	}
	want := offlineBytes(t, edges, 0, 25, 4)
	if !bytes.Equal(summaryBytes(t, published), want) {
		t.Fatal("published summaries differ from offline ComputeApprox")
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, want) {
		t.Fatal("checkpoint.irx differs from offline ComputeApprox")
	}
	var meta struct {
		Edges int   `json:"edges"`
		Last  int64 `json:"last_at"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Edges != len(edges) || meta.Last != int64(edges[len(edges)-1].At) {
		t.Fatalf("meta = %+v, want %d edges last %d", meta, len(edges), edges[len(edges)-1].At)
	}
	st := in.Stats()
	if st.Emitted != int64(len(edges)) || st.ReorderDrops != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIngestOutOfOrderWithinSlack: a skewed stream within the slack
// produces the same summaries as the sorted stream (no drops).
func TestIngestOutOfOrderWithinSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := testLog(rng, 30, 500)
	const slackPositions = 16
	// Block-shuffle arrival order; timestamps stay attached to edges.
	arrivals := append([]graph.Interaction(nil), edges...)
	for lo := 0; lo < len(arrivals); lo += slackPositions {
		hi := min(lo+slackPositions, len(arrivals))
		rng.Shuffle(hi-lo, func(i, j int) {
			arrivals[lo+i], arrivals[lo+j] = arrivals[lo+j], arrivals[lo+i]
		})
	}
	// Positions displace < 16; each position is <= 3 ticks, so 64 ticks
	// of slack safely covers the worst displacement.
	dir := t.TempDir()
	var published *core.ApproxSummaries
	in, err := New(Config{
		Dir:             dir,
		Omega:           20,
		Precision:       4,
		Slack:           64,
		ChunkEdges:      100,
		CheckpointEvery: -1,
		IdleFlush:       -1, // only Close flushes: no mid-stream watermark jump
		SyncEvery:       -1,
		Publish:         func(s *core.ApproxSummaries) { published = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arrivals {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.ReorderDrops != 0 {
		t.Fatalf("%d drops within slack", st.ReorderDrops)
	}
	if st.Emitted != int64(len(edges)) {
		t.Fatalf("emitted %d of %d", st.Emitted, len(edges))
	}
	want := offlineBytes(t, edges, 0, 20, 4)
	if !bytes.Equal(summaryBytes(t, published), want) {
		t.Fatal("skewed-arrival summaries differ from sorted-stream scan")
	}
}

// TestIngestServeRoundTrip is the end-to-end acceptance path: edges go
// in through the HTTP source, a checkpoint publishes into a live
// serve.Server, and /spread answers match the offline oracle on the
// same prefix byte for byte.
func TestIngestServeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := testLog(rng, 25, 400)
	srv := serve.New(serve.Config{CacheSize: 64})
	dir := t.TempDir()
	in, err := New(Config{
		Dir:             dir,
		Omega:           30,
		Precision:       5,
		ChunkEdges:      64,
		CheckpointEvery: -1,
		SyncEvery:       -1,
		Publish:         srv.LoadApprox,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed through the HTTP intake in two bursts, line format on the wire.
	intake := httptest.NewServer(in.Handler())
	defer intake.Close()
	var body strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&body, "%d %d %d\n", e.Src, e.Dst, e.At)
	}
	resp, err := intake.Client().Post(intake.URL, "text/plain", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Accepted int64 `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != int64(len(edges)) {
		t.Fatalf("accepted %d of %d", ack.Accepted, len(edges))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitGeneration(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Query through the real HTTP surface.
	query := httptest.NewServer(srv.Handler())
	defer query.Close()
	offline, err := core.ComputeApprox(&graph.Log{NumNodes: 25, Interactions: edges}, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]graph.NodeID{{0}, {1, 2, 3}, {0, 5, 10, 15, 20}} {
		parts := make([]string, len(seeds))
		for i, u := range seeds {
			parts[i] = fmt.Sprint(u)
		}
		resp, err := query.Client().Get(query.URL + "/spread?seeds=" + strings.Join(parts, ","))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Spread float64 `json:"spread"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := offline.SpreadEstimate(seeds)
		if got.Spread != want {
			t.Fatalf("spread(%v) = %v, want %v", seeds, got.Spread, want)
		}
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestIngestTimerCheckpoint: with a short interval and no forced
// checkpoints, streamed edges become queryable on their own within a
// couple of intervals.
func TestIngestTimerCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	edges := testLog(rng, 20, 300)
	srv := serve.New(serve.Config{})
	in, err := New(Config{
		Dir:             t.TempDir(),
		Omega:           15,
		Precision:       4,
		CheckpointEvery: 50 * time.Millisecond,
		IdleFlush:       10 * time.Millisecond,
		SyncEvery:       -1,
		Publish:         srv.LoadApprox,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitGeneration(ctx, 1); err != nil {
		t.Fatalf("no timer checkpoint arrived: %v", err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if in.Stats().Checkpoints < 1 {
		t.Fatal("no checkpoints counted")
	}
}

// TestIngestGrowsNodes: the node range follows the IDs the stream
// introduces, starting from zero configured nodes.
func TestIngestGrowsNodes(t *testing.T) {
	var published *core.ApproxSummaries
	in, err := New(Config{
		Dir:             t.TempDir(),
		Omega:           10,
		Precision:       4,
		CheckpointEvery: -1,
		SyncEvery:       -1,
		Publish:         func(s *core.ApproxSummaries) { published = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := []graph.Interaction{{Src: 0, Dst: 7, At: 1}, {Src: 7, Dst: 3, At: 2}, {Src: 3, Dst: 12, At: 4}}
	for _, e := range stream {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if published == nil || published.NumNodes() != 13 {
		t.Fatalf("published over %v nodes, want 13", published.NumNodes())
	}
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, stream, 0, 10, 4)) {
		t.Fatal("grown-range summaries differ from offline scan")
	}
}

// TestPushAfterClose: Push fails cleanly once Close has begun.
func TestPushAfterClose(t *testing.T) {
	in, err := New(Config{Dir: t.TempDir(), Omega: 5, SyncEvery: -1, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(graph.Interaction{Src: 0, Dst: 1, At: 1}); err == nil {
		t.Fatal("Push succeeded after Close")
	}
}

// TestIngestProfiles: with ProfileWindow set, a RUNNING ingester answers
// Hot from the checkpoint-published top-k snapshot — the regression this
// pins is Hot silently returning nil for the whole life of the stream —
// and after Close it ranks the exact current profiles.
func TestIngestProfiles(t *testing.T) {
	in, err := New(Config{
		Dir:             t.TempDir(),
		Omega:           100,
		ProfileWindow:   100,
		TopK:            4,
		CheckpointEvery: -1,
		SyncEvery:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// No checkpoint has published a view yet.
	if in.Hot(1) != nil {
		t.Fatal("Hot answered before the first checkpoint")
	}
	// Node 2 talks to four distinct targets, node 0 to one.
	stream := []graph.Interaction{
		{Src: 2, Dst: 3, At: 1}, {Src: 2, Dst: 4, At: 2}, {Src: 0, Dst: 1, At: 3},
		{Src: 2, Dst: 5, At: 4}, {Src: 2, Dst: 6, At: 5},
	}
	for _, e := range stream {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Still running: Hot answers from the compactor's snapshot.
	if hot := in.Hot(2); len(hot) != 2 || hot[0] != 2 {
		t.Fatalf("live Hot(2) = %v, want node 2 first", hot)
	}
	view := in.TopK()
	if view == nil {
		t.Fatal("TopK view missing after checkpoint")
	}
	if view.CoveredEdges != int64(len(stream)) || view.LastAt != 5 {
		t.Fatalf("TopK provenance = %d edges through %d, want %d through 5",
			view.CoveredEdges, view.LastAt, len(stream))
	}
	if len(view.Entries) != 2 || view.Entries[0].Node != 2 || view.Entries[0].Score <= view.Entries[1].Score {
		t.Fatalf("TopK entries = %+v, want node 2 ranked first", view.Entries)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	hot := in.Hot(2)
	if len(hot) != 2 || hot[0] != 2 {
		t.Fatalf("Hot(2) = %v, want node 2 first", hot)
	}
}
