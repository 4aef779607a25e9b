package stream

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/trace"
)

// Exactly-once across crash/recovery: a traced edge that crosses a WAL
// replay must reach serve-visible exactly once — survivors complete
// through the recovery checkpoint, edges the tear destroyed retire as
// lost, and no record is double-counted or stamped out of order.
func TestTraceRecoveryExactlyOnce(t *testing.T) {
	const m = 400
	rng := rand.New(rand.NewSource(77))
	edges := testLog(rng, 20, m)
	tr := trace.New(trace.Config{SampleEvery: 1, RingSize: 2 * m, MaxInflight: 2 * m})
	cfg := Config{
		Omega: 25, Precision: 4, ChunkEdges: 64,
		CheckpointEvery: -1, // only recovery/forced/final checkpoints
		IdleFlush:       10 * time.Millisecond,
		SegmentBytes:    2048, // several segments, so a torn tail loses a bounded suffix
		Tracer:          tr,
	}

	// First life: ingest everything, then "crash" — the ingester is
	// abandoned without Close, so no checkpoint ever published and every
	// traced record is still inflight.
	dir1 := t.TempDir()
	cfgA := cfg
	cfgA.Dir = dir1
	inA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := inA.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for inA.Stats().Emitted < m {
		if time.Now().After(deadline) {
			t.Fatalf("emitted %d of %d before deadline", inA.Stats().Emitted, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := tr.CountsNow()
	if c.Sampled != m || c.Inflight != m || c.Completed != 0 {
		t.Fatalf("pre-crash counts = %+v", c)
	}

	// The crash scene: copy the directory (SyncEvery defaults to
	// every-record, so the WAL bytes are complete), drop the durable
	// sidecars, and tear the final segment's tail in half.
	dir2 := t.TempDir()
	for _, name := range segFiles(t, dir1) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wipeDurable(t, dir2)
	segs := segFiles(t, dir2)
	final := segs[len(segs)-1]
	fi, err := os.Stat(final)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(final, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	// Second life over the torn directory, same tracer. New reconciles:
	// records past the recovered prefix retire as lost, survivors complete
	// through the recovery checkpoint's publish.
	var published *core.ApproxSummaries
	cfgB := cfg
	cfgB.Dir = dir2
	cfgB.Publish = func(s *core.ApproxSummaries) { published = s }
	inB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer inB.Close(ctx)
	if published == nil {
		t.Fatal("no recovery checkpoint published")
	}
	survivors := inB.Stats().Emitted
	if survivors <= 0 || survivors >= m {
		t.Fatalf("tear recovered %d of %d edges, want a proper subset", survivors, m)
	}
	c = tr.CountsNow()
	if c.Completed != survivors {
		t.Fatalf("completed = %d, want the %d survivors", c.Completed, survivors)
	}
	if c.Lost != m-survivors {
		t.Fatalf("lost = %d, want %d", c.Lost, m-survivors)
	}
	if c.Inflight != 0 || c.Evicted != 0 || c.Cancelled != 0 {
		t.Fatalf("post-recovery counts = %+v", c)
	}

	// New edges through the recovered pipeline complete like any others.
	const extra = 50
	base := edges[len(edges)-1].At
	for i := 0; i < extra; i++ {
		e := graph.Interaction{Src: graph.NodeID(i % 20), Dst: graph.NodeID((i + 1) % 20), At: base + graph.Time(i+1)}
		if err := inB.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := inB.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	c = tr.CountsNow()
	if c.Sampled != m+extra {
		t.Fatalf("sampled = %d, want %d", c.Sampled, m+extra)
	}
	if c.Completed != survivors+extra || c.Inflight != 0 {
		t.Fatalf("final counts = %+v (survivors %d)", c, survivors)
	}
	if got := c.Completed + c.Cancelled + c.Lost + c.Evicted + c.Inflight; got != c.Sampled {
		t.Fatalf("accounting leak: %+v", c)
	}

	// Every completed record reached serve-visible with a distinct emit
	// index and monotone stamps — no phantoms, no double stamping.
	seen := make(map[int64]bool)
	var completed int
	for _, rec := range tr.Recent(2 * m) {
		if rec.Outcome != trace.OutcomeCompleted {
			continue
		}
		completed++
		if seen[rec.EmitIndex] {
			t.Fatalf("emit index %d completed twice", rec.EmitIndex)
		}
		seen[rec.EmitIndex] = true
		if rec.Stamps[trace.StageServeVisible] == 0 {
			t.Fatalf("completed record %d missing serve_visible", rec.EmitIndex)
		}
		prev := int64(0)
		for _, s := range trace.PipelineOrder {
			at := rec.Stamps[s]
			if at == 0 {
				continue
			}
			if at < prev {
				t.Fatalf("record %d: stage %s stamp regresses", rec.EmitIndex, s)
			}
			prev = at
		}
	}
	if int64(completed) != c.Completed {
		t.Fatalf("ring holds %d completed, counters say %d", completed, c.Completed)
	}
}
