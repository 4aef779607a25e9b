package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/vhll"
)

// Retention tests: with Config.Retain set, sketch memory and sidecar disk
// must track the window instead of the stream, the accounting surfaces
// (Stats, Health, metrics, checkpoint metadata) must stay truthful after
// files are deleted, and recovery over a directory with a retired prefix
// must replay to the same published bytes the retention rule produces in
// an uninterrupted run.

// retainedEdges is the deterministic two-phase workload the retention
// tests share: 200 edges at ticks 1..200 over 16 nodes, 25-edge chunk
// alignment, so phase one seals chunks 0..3 and phase two chunks 4..7.
func retainedEdges() []graph.Interaction {
	edges := make([]graph.Interaction, 200)
	for i := range edges {
		edges[i] = graph.Interaction{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i + 7) % 16), At: graph.Time(i + 1)}
	}
	return edges
}

func retainedConfig(reg *obs.Registry) Config {
	return Config{
		Omega: 25, Precision: 4, NumNodes: 16,
		ChunkEdges: 25, Retain: 50,
		CheckpointEvery: -1, SyncEvery: -1,
		Registry: reg,
	}
}

// runRetained streams the workload in two checkpointed phases and closes:
// the second checkpoint's horizon (capped at the durable coverage of the
// first) retires phase one's four chunks and deletes their sidecars.
func runRetained(t *testing.T, dir string, reg *obs.Registry) ([]graph.Interaction, *core.ApproxSummaries) {
	t.Helper()
	edges := retainedEdges()
	var published *core.ApproxSummaries
	cfg := retainedConfig(reg)
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, half := range [][]graph.Interaction{edges[:100], edges[100:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return edges, published
}

// diskOf unpacks the Health "disk" sub-map.
func diskOf(t *testing.T, in *Ingester) map[string]any {
	t.Helper()
	d, ok := in.Health()["disk"].(map[string]any)
	if !ok {
		t.Fatal("Health has no disk map")
	}
	return d
}

// TestRetentionBoundsDiskAndAccounting: the second checkpoint retires the
// first phase's chunks; afterwards the sidecar count is back to four, the
// directory-measured chunk bytes equal written-minus-retired (the
// accounting bugfix: Health and the counter pair must agree with the
// files actually on disk), and the published summaries are byte-identical
// to the offline scan over the retained suffix alone.
func TestRetentionBoundsDiskAndAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	edges := retainedEdges()
	dir := t.TempDir()
	var published *core.ApproxSummaries
	cfg := retainedConfig(reg)
	cfg.Dir = dir
	cfg.Publish = func(s *core.ApproxSummaries) { published = s }
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, e := range edges[:100] {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	disk1 := diskOf(t, in)
	if got := disk1["chunk_files"].(int); got != 4 {
		t.Fatalf("phase 1: %d sidecars, want 4", got)
	}
	if st := in.Stats(); st.RetiredChunks != 0 {
		t.Fatalf("phase 1 retired %d chunks; the first checkpoint has no durable coverage to retire against", st.RetiredChunks)
	}

	for _, e := range edges[100:] {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if st.RetiredChunks != 4 || st.RetiredEdges != 100 {
		t.Fatalf("retired %d chunks / %d edges, want 4 / 100", st.RetiredChunks, st.RetiredEdges)
	}
	if st.Emitted != 200 || st.CoveredEdges != 200 {
		t.Fatalf("emit clocks moved: emitted %d covered %d, want 200/200 (they count retired edges too)", st.Emitted, st.CoveredEdges)
	}
	disk2 := diskOf(t, in)
	if got := disk2["chunk_files"].(int); got != 4 {
		t.Fatalf("after retirement: %d sidecars on disk, want the 4 retained", got)
	}
	snap := reg.Snapshot()
	if v := snap[MetricChunksRetired].(int64); v != 4 {
		t.Fatalf("%s = %d, want 4", MetricChunksRetired, v)
	}
	retiredBytes := snap[MetricChunkRetiredBytes].(int64)
	if retiredBytes <= 0 {
		t.Fatalf("%s = %d, want > 0", MetricChunkRetiredBytes, retiredBytes)
	}
	// The truthfulness identity: bytes on disk = bytes ever written −
	// bytes reclaimed. A stale Health that kept counting deleted files, or
	// a counter that missed a deletion, breaks this exactly.
	written := snap[MetricChunkFileBytes].(int64)
	if got := disk2["chunk_bytes"].(int64); got != written-retiredBytes {
		t.Fatalf("disk chunk_bytes = %d, want written %d − retired %d = %d", got, written, retiredBytes, written-retiredBytes)
	}
	if d1, d2 := disk1["total_bytes"].(int64), disk2["total_bytes"].(int64); d2 >= d1+retiredBytes {
		t.Fatalf("total_bytes did not drop by the retired sidecars: %d → %d with %d retired", d1, d2, retiredBytes)
	}
	if v := snap[MetricSketchBytes].(int64); v <= 0 {
		t.Fatalf("%s = %d, want > 0", MetricSketchBytes, v)
	}
	h := in.Health()
	if h["retired_chunks"].(int64) != 4 || h["retired_edges"].(int64) != 100 {
		t.Fatalf("Health retirement keys = %v / %v, want 4 / 100", h["retired_chunks"], h["retired_edges"])
	}

	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Published coverage is the retained suffix, byte-identical to the
	// offline scan over exactly those edges.
	want := offlineBytes(t, edges[100:], 16, 25, 4)
	if !bytes.Equal(summaryBytes(t, published), want) {
		t.Fatal("published summaries differ from offline scan over the retained suffix")
	}
	var meta struct {
		FirstChunk   int `json:"first_chunk"`
		RetiredEdges int `json:"retired_edges"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.FirstChunk != 4 || meta.RetiredEdges != 100 {
		t.Fatalf("meta records first_chunk=%d retired_edges=%d, want 4 / 100", meta.FirstChunk, meta.RetiredEdges)
	}
}

// TestRecoveryWithRetiredPrefix: reopening a directory whose chunk prefix
// was retired (sidecars 0..3 deleted, metadata floor at 4) must rebuild
// from the retained sidecars alone, re-apply the retention rule — with
// everything durable the horizon now reaches LastAt−Retain+1, retiring
// two more chunks exactly as an uninterrupted run's next checkpoint
// would — and publish bytes identical to the offline scan over the range
// its own metadata claims.
func TestRecoveryWithRetiredPrefix(t *testing.T) {
	dir := t.TempDir()
	edges, published := runRetained(t, dir, nil)
	if !bytes.Equal(summaryBytes(t, published), offlineBytes(t, edges[100:], 16, 25, 4)) {
		t.Fatal("pre-restart published summaries differ from offline scan over retained suffix")
	}
	for c := 0; c < 4; c++ {
		if _, err := os.Stat(chunkFileName(dir, c)); !os.IsNotExist(err) {
			t.Fatalf("retired sidecar %d still on disk", c)
		}
	}

	cfg := retainedConfig(nil)
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	st := in2.Stats()
	if st.RecoveredChunkEdges != 100 || st.RecoveredWALEdges != 0 {
		t.Fatalf("recovered %d chunk / %d wal edges, want 100 / 0", st.RecoveredChunkEdges, st.RecoveredWALEdges)
	}
	// Recovery retirement: horizon 200−50+1 = 151 sheds chunks 4 and 5.
	if st.RetiredChunks != 2 || st.RetiredEdges != 50 {
		t.Fatalf("recovery retired %d chunks / %d edges, want 2 / 50", st.RetiredChunks, st.RetiredEdges)
	}
	var meta struct {
		FirstChunk   int   `json:"first_chunk"`
		RetiredEdges int   `json:"retired_edges"`
		Edges        int64 `json:"edges"`
		LastAt       int64 `json:"last_at"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.FirstChunk != 6 || meta.RetiredEdges != 150 || meta.Edges != 200 || meta.LastAt != 200 {
		t.Fatalf("recovery meta = %+v, want first_chunk=6 retired=150 edges=200 last_at=200", meta)
	}
	// The identity gate: published bytes == offline scan over exactly the
	// range the metadata claims, and the checkpoint file agrees.
	want := offlineBytes(t, edges[meta.RetiredEdges:], 16, 25, 4)
	if !bytes.Equal(summaryBytes(t, recovered), want) {
		t.Fatal("recovered summaries differ from offline scan over the claimed retained range")
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, want) {
		t.Fatal("checkpoint.irx differs from offline scan over the claimed retained range")
	}
	// The newly retired sidecars are deleted before New returns (the
	// recovery checkpoint is synchronous).
	for c := 4; c < 6; c++ {
		if _, err := os.Stat(chunkFileName(dir, c)); !os.IsNotExist(err) {
			t.Fatalf("recovery-retired sidecar %d still on disk", c)
		}
	}
}

// TestRecoveryHealsRetirementLeftover: a crash between the checkpoint
// metadata landing (floor moved) and the sidecar deletions leaves
// below-floor files behind. loadChunks must treat them as leftovers —
// delete, not load — and recovery must proceed exactly as if the
// deletion had completed.
func TestRecoveryHealsRetirementLeftover(t *testing.T) {
	dir := t.TempDir()
	edges, _ := runRetained(t, dir, nil)
	// Resurrect a below-floor sidecar: the state a crash mid-deletion
	// leaves when chunk 3's unlink never happened.
	locals := make([]*vhll.Sketch, 16)
	if err := writeChunkFile(dir, 3, 25, 4, edges[75:100], locals, &metrics{}); err != nil {
		t.Fatal(err)
	}

	cfg := retainedConfig(nil)
	recovered, in2 := recoverPublished(t, dir, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in2.Close(ctx)
	if _, err := os.Stat(chunkFileName(dir, 3)); !os.IsNotExist(err) {
		t.Fatal("below-floor leftover survived recovery")
	}
	if recovered == nil {
		t.Fatal("no recovery checkpoint published")
	}
	// Same outcome as the clean retired-prefix recovery: the leftover
	// neither rejoins the state nor perturbs the retained fold.
	st := in2.Stats()
	if st.RecoveredChunkEdges != 100 || st.RetiredChunks != 2 {
		t.Fatalf("recovered %d chunk edges / retired %d chunks, want 100 / 2", st.RecoveredChunkEdges, st.RetiredChunks)
	}
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges[150:], 16, 25, 4)) {
		t.Fatal("recovery after leftover cleanup differs from offline scan over the retained range")
	}
}

// TestRecoveryRebuildsTopKView: recovered edges bypass the emit path, so
// without an explicit rebuild the profile table after a restart would be
// empty and the recovery checkpoint would publish a top-k view with zero
// entries while claiming full coverage. The rebuild feeds the retained
// chunks back through the profiles, and window estimates depend only on
// the edges inside the window, so the recovered view must equal the
// pre-restart one entry for entry.
func TestRecoveryRebuildsTopKView(t *testing.T) {
	dir := t.TempDir()
	edges := retainedEdges()
	cfg := retainedConfig(nil)
	cfg.Dir = dir
	cfg.ProfileWindow = 50
	cfg.TopK = 3
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, half := range [][]graph.Interaction{edges[:100], edges[100:]} {
		for _, e := range half {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := in.TopK()
	if before == nil || len(before.Entries) == 0 {
		t.Fatalf("pre-restart TopK view = %+v, want entries", before)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	cfg2 := retainedConfig(nil)
	cfg2.Dir = dir
	cfg2.ProfileWindow = 50
	cfg2.TopK = 3
	in2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer in2.Close(ctx)
	after := in2.TopK()
	if after == nil {
		t.Fatal("no TopK view published by the recovery checkpoint")
	}
	if len(after.Entries) == 0 {
		t.Fatal("recovered TopK view has no entries (profiles not rebuilt)")
	}
	if !reflect.DeepEqual(after.Entries, before.Entries) {
		t.Fatalf("recovered TopK entries = %+v, want pre-restart %+v", after.Entries, before.Entries)
	}
	if after.CoveredEdges != before.CoveredEdges || after.LastAt != before.LastAt {
		t.Fatalf("recovered TopK provenance = %d/%d, want %d/%d",
			after.CoveredEdges, after.LastAt, before.CoveredEdges, before.LastAt)
	}
}

// TestRetentionPlateau runs bounded retention at the shape of CI's
// stream job: 80,000 uniform edges over 5,000 nodes, ω = 1% and Retain
// = 4% of the span, 256 KiB WAL segments, fed in four quarters with a
// forced checkpoint after each. The stream grows 4× while the retained
// history stays fixed, so from the second quarter to the last (the
// first still carries history that retirement has not reached), sketch
// RAM and the sidecar bytes left on disk may grow at most 1.5×. The
// final checkpoint must be byte-identical to the offline scan over the
// suffix its metadata claims is retained, and a window-restricted spread
// must agree between the published summaries and that suffix scan.
func TestRetentionPlateau(t *testing.T) {
	const maxPlateau = 1.5
	l := uniformLog(t, 5000, 80_000)
	omega, retain := l.WindowFromPercent(1), l.WindowFromPercent(4)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var last *core.ApproxSummaries
	in, err := New(Config{
		Dir: dir, Omega: omega, NumNodes: l.NumNodes,
		Retain: retain, ProfileWindow: omega,
		CheckpointEvery: -1, IdleFlush: -1, SegmentBytes: 256 << 10,
		Registry: reg,
		// Close joins the compactor, so afterwards this holds the final
		// checkpoint's summaries.
		Publish: func(s *core.ApproxSummaries) { last = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type quarter struct{ edges, sketch, disk, retired int64 }
	var qs []quarter
	size := (l.Len() + 3) / 4
	for q := 0; q < 4; q++ {
		for _, e := range l.Interactions[q*size : min((q+1)*size, l.Len())] {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		snap, st := reg.Snapshot(), in.Stats()
		qs = append(qs, quarter{
			edges:   st.Emitted,
			sketch:  snap[MetricSketchBytes].(int64),
			disk:    snap[MetricChunkFileBytes].(int64) - snap[MetricChunkRetiredBytes].(int64),
			retired: st.RetiredChunks,
		})
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if growth := float64(qs[3].edges) / float64(qs[0].edges); growth < 4 {
		t.Fatalf("stream grew %.2f×, want at least 4×", growth)
	}
	if qs[3].retired < 1 {
		t.Fatal("retention retired no chunk")
	}
	if r := float64(qs[3].sketch) / float64(qs[1].sketch); r > maxPlateau {
		t.Fatalf("sketch bytes grew %.2f× from the second quarter to the last (%d → %d), above %.1f×",
			r, qs[1].sketch, qs[3].sketch, maxPlateau)
	}
	if r := float64(qs[3].disk) / float64(qs[1].disk); r > maxPlateau {
		t.Fatalf("sidecar bytes on disk grew %.2f× from the second quarter to the last (%d → %d), above %.1f×",
			r, qs[1].disk, qs[3].disk, maxPlateau)
	}

	meta := readCheckpointMeta(dir)
	if meta == nil || meta.Edges != int64(l.Len()) {
		t.Fatalf("checkpoint metadata %+v, want %d edges", meta, l.Len())
	}
	suffix := &graph.Log{NumNodes: l.NumNodes, Interactions: l.Interactions[meta.RetiredEdges:]}
	want, err := core.ComputeApprox(suffix, omega, core.DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, summaryBytes(t, want)) {
		t.Fatalf("final checkpoint differs from the offline scan over the retained edges[%d:]", meta.RetiredEdges)
	}
	if last == nil {
		t.Fatal("nothing published")
	}
	seeds := []graph.NodeID{0, 1, 2}
	at := int64(l.Interactions[l.Len()-1].At) - omega + 1
	if got, exp := last.SpreadEstimateWindow(seeds, at, omega), want.SpreadEstimateWindow(seeds, at, omega); got != exp {
		t.Fatalf("window spread of %v at %d: published %v, retained-suffix scan %v", seeds, at, got, exp)
	}
}
