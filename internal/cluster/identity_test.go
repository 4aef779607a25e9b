package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/serve"
	"ipin/internal/stream"
)

// The merge-identity property the cluster is built around: for streams
// without cross-shard multi-hop channels — here bipartite streams, whose
// source and destination node sets are disjoint — every scatter-gather
// answer is byte-identical to a single-node deployment over the whole
// stream, for every shard count and every slot map. The comparison is
// against a REAL single-node stack (stream.Ingester publishing into
// serve.Server), route by route, on the exact HTTP bytes.

const (
	testSrcs  = 300
	testDsts  = 500
	testNodes = testSrcs + testDsts
	testEdges = 4000
	testOmega = int64(800)
)

// bipartite generates a deterministic stream with sources in [0, srcs)
// and destinations in [srcs, srcs+dsts), strictly increasing timestamps
// throughout (the emitted log must be strictly increasing; equal stamps
// would be de-tie bumped differently per deployment).
//
// When tailShards > 0, the stream ends with a tail crafted so the
// merged top-k view is comparable byte-for-byte: after the body comes a
// quiet gap of a full profile window, then one burst per shard — a
// source owned by that shard contacting s+2 distinct destinations on
// consecutive ticks. Each shard's profile watermark lands inside the
// burst region, and because the gap empties the trailing window of body
// edges, evaluating a node's score at its owner's watermark or at the
// global last tick counts exactly the same contacts.
func bipartite(edges int, seed int64, slots SlotMap, tailShards int) []graph.Interaction {
	rng := rand.New(rand.NewSource(seed))
	tailCount := 0
	for s := 0; s < tailShards; s++ {
		tailCount += s + 2
	}
	body := edges - tailCount
	out := make([]graph.Interaction, edges)
	for i := 0; i < body; i++ {
		out[i] = graph.Interaction{
			Src: graph.NodeID(rng.Intn(testSrcs)),
			Dst: graph.NodeID(testSrcs + rng.Intn(testDsts)),
			At:  graph.Time(i + 1),
		}
	}
	if tailShards == 0 {
		return out
	}
	// One source per shard for the tail bursts.
	bySrc := make([]graph.NodeID, tailShards)
	seen := make([]bool, tailShards)
	for u := 0; u < testSrcs; u++ {
		sh := slots.ShardOf(graph.NodeID(u))
		bySrc[sh], seen[sh] = graph.NodeID(u), true
	}
	for sh, ok := range seen {
		if !ok {
			panic(fmt.Sprintf("no test source owned by shard %d; widen testSrcs", sh))
		}
	}
	t := graph.Time(body) + graph.Time(testOmega) // quiet gap of one window
	idx := body
	for s := 0; s < tailShards; s++ {
		for j := 0; j < s+2; j++ {
			t++
			out[idx] = graph.Interaction{
				Src: bySrc[s],
				Dst: graph.NodeID(testSrcs + (s*37+j*11)%testDsts),
				At:  t,
			}
			idx++
		}
	}
	return out
}

func testStreamConfig() stream.Config {
	return stream.Config{
		Omega:           testOmega,
		NumNodes:        testNodes,
		CheckpointEvery: -1, // forced checkpoints only: deterministic folds
		ProfileWindow:   testOmega,
		TopK:            5,
	}
}

// startSingle runs the reference deployment: one ingester over the whole
// stream, publishing into a query server.
func startSingle(t *testing.T, edges []graph.Interaction) (*stream.Ingester, *serve.Server) {
	t.Helper()
	srv := serve.New(serve.Config{})
	cfg := testStreamConfig()
	cfg.Dir = t.TempDir()
	cfg.Publish = srv.LoadApprox
	in, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close(context.Background()) })
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	return in, srv
}

func startCluster(t *testing.T, shards int, slots SlotMap, edges []graph.Interaction) *Ingester {
	t.Helper()
	c, err := New(Config{Shards: shards, Slots: slots, Dir: t.TempDir(), Stream: testStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	for _, e := range edges {
		if err := c.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	return c
}

// get performs one request against h and returns status and body.
func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// queryBattery covers every shared route, success and error paths.
func queryBattery() []string {
	mid := testOmega / 2
	return []string{
		"/influence?node=0",
		fmt.Sprintf("/influence?node=%d", testSrcs-1),
		fmt.Sprintf("/influence?node=%d", testSrcs), // a pure destination
		fmt.Sprintf("/influence?node=%d", testNodes-1),
		"/influence?node=bogus",                      // 400
		fmt.Sprintf("/influence?node=%d", testNodes), // 404
		"/spread?seeds=0,1,2,3,4",
		fmt.Sprintf("/spread?seeds=7,%d,42,%d", testSrcs+3, testNodes-1),
		"/spread?seeds=5,5,5", // canonicalization
		"/spread?seeds=",      // 400
		"/topk?k=1",
		"/topk?k=5",
		"/topk?k=0", // 400
		fmt.Sprintf("/spreadby?seeds=0,1,2&deadline=%d", mid),
		fmt.Sprintf("/spreadby?seeds=10,11&deadline=%d", testEdges),
		fmt.Sprintf("/spreadwindow?seeds=0,1,2&at=%d", mid),
		fmt.Sprintf("/spreadwindow?seeds=0,1,2&at=%d&horizon=%d", mid, testOmega/4),
		"/spreadwindow?seeds=0&at=nope", // 400
		"/stats",
	}
}

// assertSameAnswers compares every battery query byte-for-byte between
// the single-node server and the cluster frontend.
func assertSameAnswers(t *testing.T, label string, single, merged http.Handler) {
	t.Helper()
	for _, q := range queryBattery() {
		wantCode, wantBody := get(t, single, q)
		gotCode, gotBody := get(t, merged, q)
		if gotCode != wantCode || gotBody != wantBody {
			t.Errorf("%s: %s:\n single: %d %s merged: %d %s", label, q, wantCode, wantBody, gotCode, gotBody)
		}
	}
}

func singleHandler(srv *serve.Server) http.Handler {
	mux := http.NewServeMux()
	srv.Register(mux)
	return mux
}

func TestScatterGatherIdentity(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			slots := DefaultSlotMap(shards)
			edges := bipartite(testEdges, 1, slots, shards)
			singleIn, srv := startSingle(t, edges)
			c := startCluster(t, shards, nil, edges)

			// The second pass is served from the frontend's result cache.
			fe := NewFrontend(c.Gather()).Handler()
			assertSameAnswers(t, "default map", singleHandler(srv), fe)
			assertSameAnswers(t, "default map, cached", singleHandler(srv), fe)

			// The merged live top-k view: per-node scores are computed
			// entirely from the owner's substream and every shard's
			// watermark sits on the same final tick, so entries,
			// coverage, and watermark match the single-node view.
			want, got := singleIn.TopK(), c.TopK()
			if want == nil || got == nil {
				t.Fatalf("nil top-k view: single=%v cluster=%v", want, got)
			}
			if !reflect.DeepEqual(want.Entries, got.Entries) {
				t.Errorf("top-k entries:\n single: %+v\ncluster: %+v", want.Entries, got.Entries)
			}
			if want.CoveredEdges != got.CoveredEdges || want.LastAt != got.LastAt {
				t.Errorf("top-k provenance: single covered=%d last=%d, cluster covered=%d last=%d",
					want.CoveredEdges, want.LastAt, got.CoveredEdges, got.LastAt)
			}
		})
	}
}

// TestScatterGatherIdentitySkewed repeats the identity check under a
// deliberately unbalanced slot map: shard 0 owns almost the whole
// keyspace and the rest share scraps. Identity must not depend on
// balance.
func TestScatterGatherIdentitySkewed(t *testing.T) {
	const shards = 3
	slots := make(SlotMap, Slots)
	for s := range slots {
		if s%101 < shards-1 {
			slots[s] = s%101 + 1
		}
	}
	if err := slots.Validate(shards); err != nil {
		t.Fatal(err)
	}
	edges := bipartite(testEdges, 2, slots, 0)
	_, srv := startSingle(t, edges)
	c := startCluster(t, shards, slots, edges)
	fe := NewFrontend(c.Gather()).Handler()
	assertSameAnswers(t, "skewed map", singleHandler(srv), fe)
	assertSameAnswers(t, "skewed map, cached", singleHandler(srv), fe)
}

// TestScatterGatherIdentityChunked repeats the identity at two shards
// with 256-edge chunks and a checkpoint halfway: every shard then seals
// several chunks, and its second fold runs against a warm fold cache, as
// a live shard's folds do at the full chunk size.
func TestScatterGatherIdentityChunked(t *testing.T) {
	edges := bipartite(testEdges, 4, DefaultSlotMap(2), 0)
	cfg := testStreamConfig()
	cfg.ChunkEdges = 256
	srv := serve.New(serve.Config{})
	single := cfg
	single.Dir, single.Publish = t.TempDir(), srv.LoadApprox
	in, err := stream.New(single)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close(context.Background()) })
	c, err := New(Config{Shards: 2, Dir: t.TempDir(), Stream: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(context.Background()) })
	for _, half := range [][]graph.Interaction{edges[:len(edges)/2], edges[len(edges)/2:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
			if err := c.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range c.ShardStats() {
		if st.Checkpoints < 2 {
			t.Fatalf("shard %d: %d checkpoints, want a cold and a warm fold", i, st.Checkpoints)
		}
	}
	assertSameAnswers(t, "256-edge chunks", singleHandler(srv), NewFrontend(c.Gather()).Handler())
}

// TestOwnerSubstreamIdentity pins the normative per-shard guarantee on a
// GENERAL stream (sources and destinations drawn from the same node
// set, so cross-shard multi-hop channels exist): every shard's
// checkpoint is byte-identical to the offline one-pass scan over
// exactly the substream the router sent it. This is the exact statement
// of DESIGN.md's merge-semantics section — per-shard state is always
// exact for its substream, whatever the stream's shape.
func TestOwnerSubstreamIdentity(t *testing.T) {
	const shards = 3
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Interaction, testEdges)
	for i := range edges {
		edges[i] = graph.Interaction{
			Src: graph.NodeID(rng.Intn(testNodes)),
			Dst: graph.NodeID(rng.Intn(testNodes)),
			At:  graph.Time(i + 1),
		}
	}
	c := startCluster(t, shards, nil, edges)
	if err := c.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		sub := graph.New(testNodes)
		for _, e := range edges {
			if c.Route(e.Src) == i {
				sub.Add(e.Src, e.Dst, e.At)
			}
		}
		offline, err := core.ComputeApprox(sub, testOmega, core.DefaultPrecision)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := offline.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(c.cfg.Dir, fmt.Sprintf("shard-%03d", i), stream.CheckpointName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("shard %d checkpoint differs from offline scan over its substream (%d vs %d bytes)",
				i, len(got), want.Len())
		}
	}
}
