package stream

import "ipin/internal/obs"

// Streaming metric names. The serving-side series (generation, reloads)
// stay in internal/serve; these cover intake → WAL → checkpoint.
const (
	MetricEdgesAccepted  = "stream_edges_accepted_total"
	MetricEdgesEmitted   = "stream_edges_emitted_total"
	MetricReorderDrops   = "stream_reorder_drops_total"
	MetricReorderDepth   = "stream_reorder_depth"
	MetricWatermarkLag   = "stream_watermark_lag_ticks"
	MetricDetieBumps     = "stream_detie_bumps_total"
	MetricParseErrors    = "stream_parse_errors_total"
	MetricWALRecords     = "stream_wal_records_total"
	MetricWALBytes       = "stream_wal_bytes_total"
	MetricWALSegments    = "stream_wal_segments_total"
	MetricWALTruncated   = "stream_wal_truncated_bytes_total"
	MetricWALFsync       = "stream_wal_fsync_seconds"
	MetricChunksSealed   = "stream_chunks_sealed_total"
	MetricCheckpoints    = "stream_checkpoints_total"
	MetricCheckpointSkip = "stream_checkpoints_skipped_total"
	MetricCheckpointDur  = "stream_checkpoint_seconds"
	MetricCheckpointAge  = "stream_checkpoint_age_seconds"
	MetricCheckpointEdge = "stream_checkpoint_edges"
	MetricPublishes      = "stream_publishes_total"
	MetricPublishAge     = "stream_publish_age_seconds"

	MetricWALDeletedSegs  = "stream_wal_deleted_segments_total"
	MetricWALDeletedBytes = "stream_wal_deleted_bytes_total"
	MetricChunkFiles      = "stream_chunk_files_total"
	MetricChunkFileBytes  = "stream_chunk_file_bytes_total"
	MetricDirSyncs        = "stream_dir_syncs_total"
	MetricRecoveredChunk  = "stream_recovered_chunk_edges"
	MetricRecoveredWAL    = "stream_recovered_wal_edges"

	MetricChunksRetired     = "stream_chunks_retired_total"
	MetricChunkRetiredBytes = "stream_chunk_retired_bytes_total"
	MetricSketchBytes       = "stream_sketch_bytes"
	MetricTopkRefreshes     = "stream_topk_refreshes_total"
	MetricTopkSize          = "stream_topk_size"
)

// metrics bundles the ingestion instruments. Built over a nil registry
// every field is a nil no-op instrument, preserving obs's
// zero-cost-when-disabled contract.
type metrics struct {
	accepted, emitted, drops, detie, parseErrors *obs.Counter
	reorderDepth, watermarkLag                   *obs.Gauge
	walRecords, walBytes, walSegments, walTrunc  *obs.Counter
	walFsync                                     *obs.Histogram
	chunks, checkpoints, checkpointSkips         *obs.Counter
	publishes                                    *obs.Counter
	checkpointDur                                *obs.Histogram
	checkpointEdges                              *obs.Gauge
	walDeleted, walDeletedBytes                  *obs.Counter
	chunkFiles, chunkFileBytes, dirSyncs         *obs.Counter
	recoveredChunkEdges, recoveredWALEdges       *obs.Gauge
	chunksRetired, chunkRetiredBytes             *obs.Counter
	sketchBytes                                  *obs.Gauge
	topkRefreshes                                *obs.Counter
	topkSize                                     *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		accepted:            reg.Counter(MetricEdgesAccepted, "Edges accepted from sources into the reordering buffer."),
		emitted:             reg.Counter(MetricEdgesEmitted, "Edges released past the watermark into the WAL and sketch state."),
		drops:               reg.Counter(MetricReorderDrops, "Edges dropped for arriving later than the reorder slack allows."),
		detie:               reg.Counter(MetricDetieBumps, "Emitted timestamps bumped to keep the log strictly increasing."),
		parseErrors:         reg.Counter(MetricParseErrors, "Malformed input lines rejected by the edge parser."),
		reorderDepth:        reg.Gauge(MetricReorderDepth, "Edges currently held in the reordering buffer."),
		watermarkLag:        reg.Gauge(MetricWatermarkLag, "Ticks between the latest arrival and the emission watermark."),
		walRecords:          reg.Counter(MetricWALRecords, "Records appended to the write-ahead log."),
		walBytes:            reg.Counter(MetricWALBytes, "Bytes appended to the write-ahead log."),
		walSegments:         reg.Counter(MetricWALSegments, "WAL segments created (rotations plus the initial segment)."),
		walTrunc:            reg.Counter(MetricWALTruncated, "Torn-tail bytes truncated from the final segment during replay."),
		walFsync:            reg.Histogram(MetricWALFsync, "WAL fsync latency in seconds.", nil),
		chunks:              reg.Counter(MetricChunksSealed, "Sketch chunks sealed from pending edges."),
		checkpoints:         reg.Counter(MetricCheckpoints, "Durable checkpoints folded, written, and published."),
		checkpointSkips:     reg.Counter(MetricCheckpointSkip, "Interval checkpoints skipped because the previous checkpoint was still running."),
		checkpointDur:       reg.Histogram(MetricCheckpointDur, "Durable checkpoint latency (fold + sidecar persist + write + retirement + publish) in seconds.", nil),
		checkpointEdges:     reg.Gauge(MetricCheckpointEdge, "Edges covered by the last durable checkpoint."),
		publishes:           reg.Counter(MetricPublishes, "Summary sets published: durable checkpoints plus the publishes between them."),
		walDeleted:          reg.Counter(MetricWALDeletedSegs, "WAL segments deleted after their edges became durable in chunk sidecars."),
		walDeletedBytes:     reg.Counter(MetricWALDeletedBytes, "Bytes reclaimed by deleting covered WAL segments."),
		chunkFiles:          reg.Counter(MetricChunkFiles, "Chunk sidecar files written."),
		chunkFileBytes:      reg.Counter(MetricChunkFileBytes, "Bytes written to chunk sidecar files."),
		dirSyncs:            reg.Counter(MetricDirSyncs, "Directory fsyncs after renames, creations, and deletions."),
		recoveredChunkEdges: reg.Gauge(MetricRecoveredChunk, "Edges recovered from durable chunk sidecars at startup."),
		recoveredWALEdges:   reg.Gauge(MetricRecoveredWAL, "Edges recovered by WAL suffix replay at startup."),
		chunksRetired:       reg.Counter(MetricChunksRetired, "Chunk sidecar files deleted after aging past the retention horizon."),
		chunkRetiredBytes:   reg.Counter(MetricChunkRetiredBytes, "Bytes reclaimed by deleting retired chunk sidecar files."),
		sketchBytes:         reg.Gauge(MetricSketchBytes, "Resident block-local sketch bytes across the retained chunks."),
		topkRefreshes:       reg.Counter(MetricTopkRefreshes, "Live top-k view refreshes published alongside checkpoints."),
		topkSize:            reg.Gauge(MetricTopkSize, "Entries in the last published live top-k view."),
	}
}
