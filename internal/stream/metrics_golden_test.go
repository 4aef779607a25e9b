package stream

import (
	"context"
	"strings"
	"testing"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/trace"
)

// typeLines extracts the sorted "# TYPE name kind" declarations from a
// registry's exposition — the stable contract a scrape config binds to.
func typeLines(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, rest)
		}
	}
	return types
}

// The golden exposition test pins the full set of metric families an
// instrumented ingester (tracer and journal included) exposes. A rename,
// a series registered but never exported, or one exported by accident
// shows up here as a diff against the pinned list.
func TestMetricsGoldenExposition(t *testing.T) {
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{
		SampleEvery: 1,
		SLO:         trace.SLOConfig{Objective: time.Minute},
		Registry:    reg,
	})
	jr := trace.NewJournal(trace.JournalConfig{Registry: reg})
	in, err := New(Config{
		Dir: t.TempDir(), Omega: 25, Precision: 4, NumNodes: 16,
		ChunkEdges: 32, CheckpointEvery: -1, IdleFlush: 5 * time.Millisecond,
		Slack: 4, Retain: 50, ProfileWindow: 25, TopK: 5,
		Registry: reg, Tracer: tr, Journal: jr,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A workload touching every update path: paired timestamps force
	// de-tie bumps, the straggler arrives past the slack and is dropped,
	// the forced mid-run checkpoint makes the first batch's sidecars
	// durable so the second batch's checkpoint can retire them past the
	// 50-tick retention horizon (publishing a top-k view both times),
	// and Close seals, folds, and publishes the final checkpoint.
	const m = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < m; i++ {
		e := graph.Interaction{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i + 1) % 16), At: graph.Time(1 + i/2)}
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Push(graph.Interaction{Src: 0, Dst: 1, At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		e := graph.Interaction{Src: graph.NodeID(i % 16), Dst: graph.NodeID((i + 1) % 16), At: graph.Time(101 + i/2)}
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"stream_checkpoint_age_seconds gauge",
		"stream_checkpoint_edges gauge",
		"stream_checkpoint_seconds histogram",
		"stream_checkpoints_skipped_total counter",
		"stream_checkpoints_total counter",
		"stream_chunk_file_bytes_total counter",
		"stream_chunk_files_total counter",
		"stream_chunk_retired_bytes_total counter",
		"stream_chunks_retired_total counter",
		"stream_chunks_sealed_total counter",
		"stream_detie_bumps_total counter",
		"stream_dir_syncs_total counter",
		"stream_edges_accepted_total counter",
		"stream_edges_emitted_total counter",
		"stream_parse_errors_total counter",
		"stream_publish_age_seconds gauge",
		"stream_publishes_total counter",
		"stream_recovered_chunk_edges gauge",
		"stream_recovered_wal_edges gauge",
		"stream_reorder_depth gauge",
		"stream_reorder_drops_total counter",
		"stream_sketch_bytes gauge",
		"stream_topk_refreshes_total counter",
		"stream_topk_size gauge",
		"stream_wal_bytes_total counter",
		"stream_wal_deleted_bytes_total counter",
		"stream_wal_deleted_segments_total counter",
		"stream_wal_fsync_seconds histogram",
		"stream_wal_records_total counter",
		"stream_wal_segments_total counter",
		"stream_wal_truncated_bytes_total counter",
		"stream_watermark_lag_ticks gauge",
		"trace_e2e_seconds histogram",
		"trace_journal_events_total counter",
		"trace_records_cancelled_total counter",
		"trace_records_completed_total counter",
		"trace_records_evicted_total counter",
		"trace_records_inflight gauge",
		"trace_records_lost_total counter",
		"trace_records_sampled_total counter",
		"trace_slo_attainment_ppm gauge",
		"trace_slo_breaches_total counter",
		"trace_slo_budget_remaining_ppm gauge",
		"trace_slo_burn_rate_ppm gauge",
		"trace_slo_objective_ms gauge",
		"trace_slo_observed_total counter",
		"trace_slo_target_ppm gauge",
		"trace_stage_seconds histogram",
	}
	got := typeLines(t, reg)
	if len(got) != len(want) {
		t.Errorf("exposition has %d families, golden list has %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing family %q", want[i])
		case i >= len(want):
			t.Errorf("unexpected family %q", got[i])
		case got[i] != want[i]:
			t.Errorf("family %d = %q, want %q", i, got[i], want[i])
		}
	}

	// Every family the workload exercised must actually move — a series
	// that stayed at zero here is exported but never updated.
	snap := reg.Snapshot()
	for _, name := range []string{
		MetricEdgesAccepted, MetricEdgesEmitted, MetricReorderDrops,
		MetricDetieBumps, MetricWALRecords, MetricWALBytes, MetricWALSegments,
		MetricChunksSealed, MetricCheckpoints, MetricCheckpointEdge, MetricPublishes,
		MetricChunkFiles, MetricChunkFileBytes, MetricDirSyncs,
		MetricChunksRetired, MetricChunkRetiredBytes,
		MetricSketchBytes, MetricTopkRefreshes, MetricTopkSize,
		trace.MetricSampled, trace.MetricCompleted, trace.MetricCancelled,
		trace.MetricSLOOK, trace.MetricSLOAttain,
		trace.MetricJournalEvt + `{type="segment_rotate"}`,
		trace.MetricJournalEvt + `{type="chunk_seal"}`,
		trace.MetricJournalEvt + `{type="chunk_retire"}`,
		trace.MetricJournalEvt + `{type="checkpoint"}`,
	} {
		if v, ok := snap[name].(int64); !ok || v <= 0 {
			t.Errorf("%s = %v, want > 0", name, snap[name])
		}
	}
	for _, name := range []string{
		MetricWALFsync, MetricCheckpointDur,
		trace.MetricEndToEnd,
		trace.MetricStage + `{stage="serve_visible"}`,
	} {
		if h, ok := snap[name].(obs.HistogramSnapshot); !ok || h.Count == 0 {
			t.Errorf("%s never observed (%v)", name, snap[name])
		}
	}
}
