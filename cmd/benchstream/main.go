// Command benchstream measures the live ingestion subsystem
// (internal/stream) end to end and writes the results as JSON
// (BENCH_stream.json at the repo root, by convention). It reports the
// numbers that size a deployment:
//
//   - sustained intake: edges/second through Push → reorder → WAL →
//     sealed chunks while interval checkpoints run concurrently;
//   - checkpoint latency: fold + snapshot write per checkpoint
//     (p50/p99), the cost of refreshing the served state — with the
//     amortized incremental fold, proportional to the edges since the
//     previous checkpoint, not the total;
//   - the incremental-vs-full fold A/B: the same final state folded
//     once against the cached previous fold and once from scratch, the
//     speedup the fold cache buys at full size;
//   - freshness: how stale a just-ingested edge is before a published
//     checkpoint makes it queryable (p50/p99);
//   - recovery: wall time and the chunk-sidecar / WAL-suffix split of
//     the replayed edges when the state directory is reopened.
//
// Alongside the numbers it enforces the subsystem's correctness
// contract and exits non-zero on any violation:
//
//   - the final checkpoint of an in-order run is byte-identical to the
//     offline one-pass scan (core.ComputeApprox) over the same log;
//   - a bounded out-of-order replay of the same edges (block shuffle,
//     -skew positions) drops nothing and converges to the same bytes;
//   - re-opening the state directory rebuilds the state from durable
//     chunk sidecars with zero WAL replay — and, again, the same bytes;
//   - after deleting the trailing sidecars (a crash between compactor
//     passes), recovery replays exactly the uncovered WAL suffix and
//     still converges to the same bytes;
//   - the incremental fold beats the full refold by at least
//     -min-speedup at full size;
//   - WAL segments covered by durable sidecars are actually deleted,
//     so the log's disk footprint stays bounded;
//   - with -retain bounding the retained history, resident sketch
//     bytes and on-disk sidecar bytes plateau while the stream grows
//     4×, the final checkpoint stays byte-identical to the offline
//     scan over exactly the retained suffix, and window-restricted
//     spread queries agree with that suffix scan;
//   - with -shards N, a bipartite copy of the log ingested through the
//     slot router at N shards answers every query byte-identically to
//     a single-node server fed the whole copy, with merge-query
//     latency reported alongside 1-shard vs N-shard intake rates.
//
// The report records the host's CPU count and GOMAXPROCS, the same
// convention as BENCH_serve.json: intake is single-writer by design,
// but the fold runs on internal/par workers, so checkpoint latency
// scales with real cores.
//
// Usage:
//
//	benchstream -edges 500000 -out BENCH_stream.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/cluster"
	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/repl"
	"ipin/internal/serve"
	"ipin/internal/stream"
	"ipin/internal/trace"
)

type report struct {
	Edges           int     `json:"edges"`
	Nodes           int     `json:"nodes"`
	OmegaTicks      int64   `json:"omega_ticks"`
	Skew            int     `json:"skew_positions"`
	CheckpointEvery string  `json:"checkpoint_every"`
	SegmentBytes    int64   `json:"segment_bytes"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Note            string  `json:"note"`
	SustainedEPS    float64 `json:"sustained_edges_per_sec"`
	IngestSeconds   float64 `json:"ingest_wall_seconds"`
	CloseSeconds    float64 `json:"close_wall_seconds"`
	Checkpoints     int64   `json:"checkpoints"`
	CheckpointP50Ms float64 `json:"checkpoint_p50_ms"`
	CheckpointP99Ms float64 `json:"checkpoint_p99_ms"`
	FreshnessP50Ms  float64 `json:"freshness_p50_ms"`
	FreshnessP99Ms  float64 `json:"freshness_p99_ms"`
	FreshnessN      int     `json:"freshness_samples"`
	WALBytes        int64   `json:"wal_bytes"`
	WALSegments     int64   `json:"wal_segments"`

	// Incremental-vs-full fold A/B over the final state.
	FoldFullMs          float64 `json:"fold_full_refold_ms"`
	FoldIncrementalMs   float64 `json:"fold_incremental_ms"`
	FoldSpeedup         float64 `json:"fold_speedup"`
	IdentityIncremental bool    `json:"identity_incremental_fold"`

	// Durability footprint of the sustained run.
	WALDeletedSegments int64 `json:"wal_deleted_segments"`
	WALLiveSegments    int   `json:"wal_live_segments"`
	ChunkFiles         int64 `json:"chunk_files"`
	ChunkFileBytes     int64 `json:"chunk_file_bytes"`

	// Recovery from the intact directory (sidecars cover everything).
	RecoverySeconds     float64 `json:"recovery_wall_seconds"`
	RecoveredChunkEdges int64   `json:"recovered_chunk_edges"`
	RecoveredWALEdges   int64   `json:"recovered_wal_edges"`

	// Recovery after the trailing sidecars are lost (WAL suffix replay).
	SuffixReplaySeconds  float64 `json:"suffix_recovery_wall_seconds"`
	SuffixReplayWALEdges int64   `json:"suffix_recovery_wal_edges"`
	IdentitySuffix       bool    `json:"identity_suffix_recovery"`

	IdentityInOrder bool  `json:"identity_in_order"`
	IdentitySkewed  bool  `json:"identity_skewed"`
	IdentityRecover bool  `json:"identity_recovered"`
	SkewedDrops     int64 `json:"skewed_drops"`

	// Traced run: per-stage latency attribution from sampled end-to-end
	// edge traces, the freshness SLO, and the accounting that proves
	// every traced edge reached serve-visible exactly once.
	TraceSampleEvery  int                  `json:"trace_sample_every"`
	TraceSampled      int64                `json:"trace_sampled"`
	TraceCompleted    int64                `json:"trace_completed"`
	TraceCancelled    int64                `json:"trace_cancelled"`
	TraceLost         int64                `json:"trace_lost"`
	TraceEvicted      int64                `json:"trace_evicted"`
	TraceInflight     int64                `json:"trace_inflight"`
	TraceStages       []trace.StageLatency `json:"trace_stages"`
	TraceE2EP50Ms     float64              `json:"trace_e2e_p50_ms"`
	TraceE2EP99Ms     float64              `json:"trace_e2e_p99_ms"`
	TraceStageP50Sum  float64              `json:"trace_stage_p50_sum_ms"`
	TraceStageMeanSum float64              `json:"trace_stage_mean_sum_ms"`
	TraceIndepP50Ms   float64              `json:"trace_independent_e2e_p50_ms"`
	TraceIndepP99Ms   float64              `json:"trace_independent_e2e_p99_ms"`
	TraceIndepMeanMs  float64              `json:"trace_independent_e2e_mean_ms"`
	TraceIndepSamples int                  `json:"trace_independent_samples"`
	TraceAttrGap      float64              `json:"trace_attribution_gap"`
	SLOObjectiveMs    float64              `json:"slo_objective_ms"`
	SLOTarget         float64              `json:"slo_target"`
	SLOAttainment     float64              `json:"slo_attainment"`
	SLOBudgetRemain   float64              `json:"slo_budget_remaining"`
	SLOBurnRate       float64              `json:"slo_burn_rate"`

	// Tracing overhead A/B: sustained intake with tracing absent vs
	// sampled at 1/1024, interleaved pairs, medians compared.
	OverheadPairs     int     `json:"overhead_pairs"`
	OverheadBaseEPS   float64 `json:"overhead_base_eps"`
	OverheadTracedEPS float64 `json:"overhead_traced_eps"`
	TraceOverhead     float64 `json:"trace_overhead"`

	// Bounded-memory long run (Config.Retain): the stream grows ≥4×
	// across checkpointed quarters while the retained history stays
	// fixed, so resident sketch bytes and on-disk sidecar bytes must
	// plateau instead of tracking stream length; the final checkpoint
	// must stay byte-identical to the offline scan over exactly the
	// suffix its metadata claims is retained.
	RetainTicks          int64          `json:"retain_ticks"`
	BoundedQuarters      []boundedPhase `json:"bounded_quarters"`
	BoundedGrowth        float64        `json:"bounded_edges_growth"`
	BoundedSketchRatio   float64        `json:"bounded_sketch_plateau_ratio"`
	BoundedChunkRatio    float64        `json:"bounded_chunk_plateau_ratio"`
	BoundedRetiredChunks int64          `json:"bounded_retired_chunks"`
	BoundedRetiredEdges  int64          `json:"bounded_retired_edges"`
	IdentityBounded      bool           `json:"identity_bounded_retention"`
	BoundedWindowAgree   bool           `json:"bounded_window_query_agrees"`

	// Cluster phase (-shards): a bipartite copy of the log ingested
	// through the shard router at 1 shard and at -shards shards, the
	// scatter-gather identity gate against a real single-node server,
	// and merge-query latency over the sharded frontend. All shards
	// share this machine's cores, so the sharded edges/s measures
	// routing overhead, not scale-out — see the note.
	ClusterShards     int     `json:"cluster_shards"`
	ClusterEPS1       float64 `json:"cluster_1shard_edges_per_sec"`
	ClusterEPSK       float64 `json:"cluster_sharded_edges_per_sec"`
	ClusterQueryCount int     `json:"cluster_merge_queries"`
	ClusterQueryP50Ms float64 `json:"cluster_merge_query_p50_ms"`
	ClusterQueryP99Ms float64 `json:"cluster_merge_query_p99_ms"`
	IdentityCluster   bool    `json:"identity_cluster_scatter_gather"`

	// Kill-the-primary phase (-replicas): 70% of the log streams through
	// a replication primary into following replicas, the primary is
	// killed, the failover controller promotes the most-caught-up
	// replica, and the remaining 30% resumes on it. Gates: the promoted
	// checkpoint is byte-identical to the offline scan over the acked
	// prefix, the final checkpoint matches the full offline scan, and
	// failover (kill → promoted replica answering queries from sealed
	// state) completes within -failover-deadline.
	ReplReplicas        int     `json:"repl_replicas"`
	ReplFedEdges        int64   `json:"repl_fed_edges_at_kill"`
	ReplPromotePosition int64   `json:"repl_promoted_position"`
	ReplFailoverMs      float64 `json:"repl_failover_ms"`
	ReplFailoverBudget  string  `json:"repl_failover_deadline"`
	ReplResumedEdges    int64   `json:"repl_resumed_edges"`
	IdentityReplPrefix  bool    `json:"identity_repl_promoted_prefix"`
	IdentityReplFinal   bool    `json:"identity_repl_final"`
}

// boundedPhase is one measured quarter of the bounded-memory run, taken
// right after that quarter's forced checkpoint published.
type boundedPhase struct {
	Edges         int64 `json:"edges"`
	SketchBytes   int64 `json:"sketch_bytes"`
	ChunkBytes    int64 `json:"chunk_bytes_on_disk"`
	RetiredChunks int64 `json:"retired_chunks"`
	RetiredEdges  int64 `json:"retired_edges"`
}

// ckptMeta mirrors the checkpoint.meta.json sidecar the ingester writes
// before each durable checkpoint publishes, so the Publish callback can
// read the checkpoint's edge count and fold time.
type ckptMeta struct {
	Edges        int64   `json:"edges"`
	RetiredEdges int64   `json:"retired_edges"`
	FoldSeconds  float64 `json:"fold_seconds"`
}

// sample is one timed push: the accepted-edge count right after it
// (== emitted order on an in-order run) and when it was offered.
type sample struct {
	index int64
	at    time.Time
}

// publishCredit turns timed pushes into push-to-queryable freshness:
// each sample is credited to the first publish — durable checkpoint or
// publish between checkpoints — whose coverage includes it. A Publish
// callback cannot see what its publish covers, because the ingester
// moves Stats().CoveredEdges only after the callback returns, so each
// callback credits the previous publish at that publish's time, and
// done credits the last one after Close.
type publishCredit struct {
	mu      sync.Mutex
	samples []sample
	fresh   []time.Duration
	prevAt  time.Time
}

func (c *publishCredit) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// published runs inside the Publish callback once the publish is
// queryable; covered is Stats().CoveredEdges there — what the previous
// publish covered.
func (c *publishCredit) published(covered int64) {
	c.mu.Lock()
	c.creditLocked(covered)
	c.prevAt = time.Now()
	c.mu.Unlock()
}

// done credits the last publish, covering the final Stats().CoveredEdges.
func (c *publishCredit) done(covered int64) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.creditLocked(covered)
	return c.fresh
}

func (c *publishCredit) creditLocked(covered int64) {
	for len(c.samples) > 0 && c.samples[0].index <= covered {
		c.fresh = append(c.fresh, c.prevAt.Sub(c.samples[0].at))
		c.samples = c.samples[1:]
	}
}

func main() {
	var (
		edges        = flag.Int("edges", 500_000, "interactions in the generated log")
		nodes        = flag.Int("nodes", 20_000, "nodes in the generated log")
		window       = flag.Float64("window", 1, "window as % of the time span")
		every        = flag.Duration("checkpoint-every", 250*time.Millisecond, "interval between automatic checkpoints during the sustained run")
		sampleEv     = flag.Int("sample-every", 512, "freshness sample cadence in edges")
		skew         = flag.Int("skew", 64, "out-of-order displacement (positions) for the skewed replay")
		segBytes     = flag.Int64("segment-bytes", 256<<10, "WAL segment size for the sustained run (small enough to exercise compaction)")
		minSpeedup   = flag.Float64("min-speedup", 5, "minimum incremental-vs-full fold speedup (gate)")
		minIntakeEPS = flag.Float64("min-intake-eps", 0, "fail unless sustained intake reaches this many edges/sec (0 = no gate)")
		traceEvery   = flag.Int("trace-every", 256, "edge-trace sampling cadence for the traced run")
		sloObj       = flag.Duration("slo-objective", 2*time.Second, "freshness SLO objective for the traced run")
		sloTarget    = flag.Float64("slo-target", 0.99, "freshness SLO target fraction")
		maxAttrGap   = flag.Float64("max-attr-gap", 0.15, "max relative gap between the per-stage mean latencies' sum and the independent e2e mean (gate)")
		maxTraceOv   = flag.Float64("max-trace-overhead", 0.05, "max sustained-intake regression with 1/1024 tracing (gate)")
		ovPairs      = flag.Int("overhead-pairs", 3, "interleaved off/on ingest pairs for the overhead A/B")
		retainPct    = flag.Float64("retain", 4, "bounded-memory run: retained history as % of the time span (clamped up to -window)")
		maxPlateau   = flag.Float64("max-plateau", 1.5, "bounded-memory run: max sketch-RAM and on-disk growth from the second to the last quarter (gate)")
		shards       = flag.Int("shards", 2, "shard count for the cluster phase (0 disables it)")
		replicas     = flag.Int("replicas", 1, "replica count for the kill-the-primary phase (0 disables it)")
		failoverBy   = flag.Duration("failover-deadline", 5*time.Second, "kill-the-primary phase: max time from kill to the promoted replica answering queries from sealed state (gate)")
		out          = flag.String("out", "BENCH_stream.json", "output JSON path")
	)
	flag.Parse()

	l, err := gen.Generate(gen.Config{
		Name:         "benchstream",
		Model:        gen.ModelUniform,
		Nodes:        *nodes,
		Interactions: *edges,
		SpanTicks:    int64(*edges) * 4,
		Seed:         1,
	})
	if err != nil {
		fatal(err)
	}
	// Strictly increasing timestamps: identity then holds edge-for-edge
	// regardless of arrival order, because neither the reorder buffer's
	// tie-breaking nor its de-tie bump ever fires.
	sort.SliceStable(l.Interactions, func(i, j int) bool { return l.Interactions[i].At < l.Interactions[j].At })
	for i := 1; i < len(l.Interactions); i++ {
		if l.Interactions[i].At <= l.Interactions[i-1].At {
			l.Interactions[i].At = l.Interactions[i-1].At + 1
		}
	}
	omega := l.WindowFromPercent(*window)
	fmt.Fprintf(os.Stderr, "benchstream: %d nodes, %d interactions, ω=%d (NumCPU=%d)\n",
		l.NumNodes, l.Len(), omega, runtime.NumCPU())

	offline, err := core.ComputeApprox(l, omega, core.DefaultPrecision)
	if err != nil {
		fatal(err)
	}
	var offlineBuf bytes.Buffer
	if _, err := offline.WriteTo(&offlineBuf); err != nil {
		fatal(err)
	}

	rep := report{
		Edges:           l.Len(),
		Nodes:           l.NumNodes,
		OmegaTicks:      omega,
		Skew:            *skew,
		CheckpointEvery: every.String(),
		SegmentBytes:    *segBytes,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Note: "in-order sustained run with interval checkpoints; freshness = push-to-publish age of sampled edges; fold A/B = same final state folded " +
			"with and without the cached previous fold; identity gates compare the final, skewed-replay, sidecar-recovery, and WAL-suffix-recovery " +
			"checkpoints byte-for-byte against the offline one-pass scan",
	}

	// Phase 0: the fold A/B. Build the final chunk sequence once, fold it
	// after warming the cache on all-but-the-last chunk (the steady-state
	// checkpoint: one new chunk against the cached fold), then fold the
	// identical sequence on a cold builder (every pre-cache checkpoint).
	const abChunk = 16384 // stream.Config's default ChunkEdges
	warm, err := core.NewIncrementalApprox(omega, core.DefaultPrecision, l.NumNodes)
	if err != nil {
		fatal(err)
	}
	last := (l.Len() - 1) / abChunk * abChunk // first index of the final chunk
	for lo := 0; lo < last; lo += abChunk {
		if err := warm.AppendChunk(l.Interactions[lo:min(lo+abChunk, last)], l.NumNodes); err != nil {
			fatal(err)
		}
	}
	warm.View().Fold() // prime the cache; untimed
	if err := warm.AppendChunk(l.Interactions[last:], l.NumNodes); err != nil {
		fatal(err)
	}
	incStart := time.Now()
	incSum := warm.View().Fold()
	incD := time.Since(incStart)
	cold, err := core.NewIncrementalApprox(omega, core.DefaultPrecision, l.NumNodes)
	if err != nil {
		fatal(err)
	}
	for lo := 0; lo < l.Len(); lo += abChunk {
		if err := cold.AppendChunk(l.Interactions[lo:min(lo+abChunk, l.Len())], l.NumNodes); err != nil {
			fatal(err)
		}
	}
	fullStart := time.Now()
	cold.View().Fold()
	fullD := time.Since(fullStart)
	var incBuf bytes.Buffer
	if _, err := incSum.WriteTo(&incBuf); err != nil {
		fatal(err)
	}
	rep.FoldFullMs = float64(fullD) / float64(time.Millisecond)
	rep.FoldIncrementalMs = float64(incD) / float64(time.Millisecond)
	rep.FoldSpeedup = float64(fullD) / float64(incD)
	rep.IdentityIncremental = bytes.Equal(incBuf.Bytes(), offlineBuf.Bytes())
	fmt.Fprintf(os.Stderr, "benchstream: fold A/B: full %.0fms, incremental %.0fms (%.1fx), identity %v\n",
		rep.FoldFullMs, rep.FoldIncrementalMs, rep.FoldSpeedup, rep.IdentityIncremental)

	work, err := os.MkdirTemp("", "benchstream-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)
	dir1 := filepath.Join(work, "inorder")

	// Phase 1: sustained in-order ingest. One producer pushes flat out
	// while the timer checkpoints; every sample-every-th edge gets a
	// timestamp so the Publish hook can measure push-to-publish age. The
	// small WAL segments force rotations, so compaction (covered-segment
	// deletion behind the sidecar frontier) runs live under load.
	var (
		credit    publishCredit
		inP       atomic.Pointer[stream.Ingester]
		fmu       sync.Mutex
		foldTimes []time.Duration
		lastMeta  int64
	)
	reg := obs.NewRegistry()
	in, err := stream.New(stream.Config{
		Dir:             dir1,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		CheckpointEvery: *every,
		SegmentBytes:    *segBytes,
		Registry:        reg,
		Publish: func(*core.ApproxSummaries) {
			if in := inP.Load(); in != nil {
				credit.published(in.Stats().CoveredEdges)
			}
			// A durable checkpoint renames its metadata into place before
			// Publish runs, so a metadata file that moved belongs to the
			// checkpoint being published; publishes between checkpoints
			// leave it alone.
			var meta ckptMeta
			raw, err := os.ReadFile(filepath.Join(dir1, stream.CheckpointMetaName))
			if err != nil || json.Unmarshal(raw, &meta) != nil {
				return
			}
			fmu.Lock()
			defer fmu.Unlock()
			if meta.Edges != lastMeta {
				lastMeta = meta.Edges
				foldTimes = append(foldTimes, time.Duration(meta.FoldSeconds*float64(time.Second)))
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	inP.Store(in)
	start := time.Now()
	for i, e := range l.Interactions {
		at := time.Now()
		if err := in.Push(e); err != nil {
			fatal(err)
		}
		if (i+1)%*sampleEv == 0 {
			credit.add(sample{index: int64(i + 1), at: at})
		}
	}
	ingestD := time.Since(start)
	closeStart := time.Now()
	if err := in.Close(context.Background()); err != nil {
		fatal(err)
	}
	closeD := time.Since(closeStart)
	st := in.Stats()
	freshness := credit.done(st.CoveredEdges)
	rep.SustainedEPS = float64(l.Len()) / ingestD.Seconds()
	rep.IngestSeconds = ingestD.Seconds()
	rep.CloseSeconds = closeD.Seconds()
	rep.Checkpoints = st.Checkpoints
	rep.CheckpointP50Ms = percentileMs(foldTimes, 50)
	rep.CheckpointP99Ms = percentileMs(foldTimes, 99)
	rep.FreshnessP50Ms = percentileMs(freshness, 50)
	rep.FreshnessP99Ms = percentileMs(freshness, 99)
	rep.FreshnessN = len(freshness)
	snap := reg.Snapshot()
	if v, ok := snap[stream.MetricWALBytes].(int64); ok {
		rep.WALBytes = v
	}
	if v, ok := snap[stream.MetricWALSegments].(int64); ok {
		rep.WALSegments = v
	}
	if v, ok := snap[stream.MetricWALDeletedSegs].(int64); ok {
		rep.WALDeletedSegments = v
	}
	if v, ok := snap[stream.MetricChunkFiles].(int64); ok {
		rep.ChunkFiles = v
	}
	if v, ok := snap[stream.MetricChunkFileBytes].(int64); ok {
		rep.ChunkFileBytes = v
	}
	liveSegs, err := filepath.Glob(filepath.Join(dir1, "wal-*.seg"))
	if err != nil {
		fatal(err)
	}
	rep.WALLiveSegments = len(liveSegs)
	fmt.Fprintf(os.Stderr, "benchstream: sustained %.0f edges/s over %.2fs, %d checkpoints (p50 %.1fms p99 %.1fms), freshness p50 %.0fms p99 %.0fms (%d samples)\n",
		rep.SustainedEPS, rep.IngestSeconds, rep.Checkpoints,
		rep.CheckpointP50Ms, rep.CheckpointP99Ms, rep.FreshnessP50Ms, rep.FreshnessP99Ms, rep.FreshnessN)
	fmt.Fprintf(os.Stderr, "benchstream: WAL %d segments created, %d deleted, %d live; %d chunk sidecars (%.1f MiB)\n",
		rep.WALSegments, rep.WALDeletedSegments, rep.WALLiveSegments, rep.ChunkFiles, float64(rep.ChunkFileBytes)/(1<<20))

	// Phase 2: identity of the in-order run's final checkpoint.
	rep.IdentityInOrder = checkpointMatches(dir1, offlineBuf.Bytes())
	fmt.Fprintf(os.Stderr, "benchstream: in-order identity: %v\n", rep.IdentityInOrder)

	// Phase 3: skewed replay. Block-shuffling within skew+1 positions
	// bounds displacement, and the slack is set to the worst observed
	// time lateness, so a correct reorder buffer drops nothing. The WAL
	// is kept to a single never-rotated segment so phase 5 can delete
	// trailing sidecars and still find every edge in the log.
	arrival := append([]graph.Interaction(nil), l.Interactions...)
	shuffleBounded(arrival, *skew, 7)
	var slack, maxSeen int64
	maxSeen = -1 << 62
	for _, e := range arrival {
		if late := maxSeen - int64(e.At); late > slack {
			slack = late
		}
		if int64(e.At) > maxSeen {
			maxSeen = int64(e.At)
		}
	}
	dir2 := filepath.Join(work, "skewed")
	in2, err := stream.New(stream.Config{
		Dir:             dir2,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		Slack:           slack,
		CheckpointEvery: -1,
		IdleFlush:       -1,
		SegmentBytes:    1 << 40,
	})
	if err != nil {
		fatal(err)
	}
	for _, e := range arrival {
		if err := in2.Push(e); err != nil {
			fatal(err)
		}
	}
	if err := in2.Close(context.Background()); err != nil {
		fatal(err)
	}
	rep.SkewedDrops = in2.Stats().ReorderDrops
	rep.IdentitySkewed = checkpointMatches(dir2, offlineBuf.Bytes()) && rep.SkewedDrops == 0
	fmt.Fprintf(os.Stderr, "benchstream: skewed identity (skew %d, slack %d ticks): %v (%d drops)\n",
		*skew, slack, rep.IdentitySkewed, rep.SkewedDrops)

	// Phase 4: recovery. Re-opening the in-order directory must rebuild
	// the whole state from durable chunk sidecars — zero WAL replay —
	// and publish a recovery checkpoint before accepting intake.
	var recovered bytes.Buffer
	recStart := time.Now()
	in3, err := stream.New(stream.Config{
		Dir:             dir1,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		CheckpointEvery: -1,
		SegmentBytes:    *segBytes,
		Publish: func(s *core.ApproxSummaries) {
			recovered.Reset()
			if _, err := s.WriteTo(&recovered); err != nil {
				fatal(err)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	rep.RecoverySeconds = time.Since(recStart).Seconds()
	rst := in3.Stats()
	rep.RecoveredChunkEdges = rst.RecoveredChunkEdges
	rep.RecoveredWALEdges = rst.RecoveredWALEdges
	if err := in3.Close(context.Background()); err != nil {
		fatal(err)
	}
	rep.IdentityRecover = bytes.Equal(recovered.Bytes(), offlineBuf.Bytes())
	fmt.Fprintf(os.Stderr, "benchstream: recovery identity: %v (%.2fs; %d edges from sidecars, %d from WAL)\n",
		rep.IdentityRecover, rep.RecoverySeconds, rep.RecoveredChunkEdges, rep.RecoveredWALEdges)

	// Phase 5: suffix replay. Drop the last two sidecars from the skewed
	// directory — the state a crash between compactor passes leaves —
	// and recovery must rebuild the surviving prefix from sidecars,
	// replay exactly the uncovered WAL suffix, and converge to the same
	// bytes (the stale checkpoint meta, which claims more chunks than
	// survive, must be rejected by the fold-cache seeding).
	sidecars, err := filepath.Glob(filepath.Join(dir2, "chunk-*.blk"))
	if err != nil {
		fatal(err)
	}
	sort.Strings(sidecars) // indices share a width here, so this is numeric
	if len(sidecars) < 3 {
		fatal(fmt.Errorf("phase 5 needs ≥3 sidecars, found %d (raise -edges)", len(sidecars)))
	}
	for _, name := range sidecars[len(sidecars)-2:] {
		if err := os.Remove(name); err != nil {
			fatal(err)
		}
	}
	var suffixRecovered bytes.Buffer
	sufStart := time.Now()
	in4, err := stream.New(stream.Config{
		Dir:             dir2,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		CheckpointEvery: -1,
		SegmentBytes:    1 << 40,
		Publish: func(s *core.ApproxSummaries) {
			suffixRecovered.Reset()
			if _, err := s.WriteTo(&suffixRecovered); err != nil {
				fatal(err)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	rep.SuffixReplaySeconds = time.Since(sufStart).Seconds()
	sst := in4.Stats()
	rep.SuffixReplayWALEdges = sst.RecoveredWALEdges
	if err := in4.Close(context.Background()); err != nil {
		fatal(err)
	}
	rep.IdentitySuffix = bytes.Equal(suffixRecovered.Bytes(), offlineBuf.Bytes()) &&
		sst.RecoveredChunkEdges+sst.RecoveredWALEdges == int64(l.Len())
	fmt.Fprintf(os.Stderr, "benchstream: suffix-replay identity: %v (%.2fs; %d edges from sidecars, %d from WAL)\n",
		rep.IdentitySuffix, rep.SuffixReplaySeconds, sst.RecoveredChunkEdges, sst.RecoveredWALEdges)

	// Phase 6: the traced run. Same shape as the sustained run, but every
	// trace-every-th accepted edge carries a trace record stamped at each
	// pipeline stage, the Publish hook installs each checkpoint into a
	// real serve store (whose generation swap stamps serve-visible), and
	// an independent push-to-queryable sample stream cross-checks the
	// per-stage attribution: the stages' mean latencies must sum to
	// within -max-attr-gap of the independently measured end-to-end
	// mean. Means, not p50s: an edge becomes queryable either through a
	// publish between checkpoints (skipping chunk_seal and
	// checkpoint_write) or through a durable checkpoint, and only means
	// add up across such a mixture — a skipped stage counts as 0.
	dir6 := filepath.Join(work, "traced")
	tr6 := trace.New(trace.Config{
		SampleEvery: *traceEvery,
		RingSize:    1 << 14,
		MaxInflight: 1 << 20,
		SLO:         trace.SLOConfig{Objective: *sloObj, Target: *sloTarget},
	})
	jr6 := trace.NewJournal(trace.JournalConfig{})
	srv := serve.New(serve.Config{Tracer: tr6})
	var (
		tcredit publishCredit
		in6P    atomic.Pointer[stream.Ingester]
	)
	in6, err := stream.New(stream.Config{
		Dir:             dir6,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		CheckpointEvery: *every,
		SegmentBytes:    *segBytes,
		Tracer:          tr6,
		Journal:         jr6,
		Publish: func(s *core.ApproxSummaries) {
			// Queryable means installed in the serve store, not merely
			// published — LoadApprox is part of the measured freshness.
			srv.LoadApprox(s)
			if in := in6P.Load(); in != nil {
				tcredit.published(in.Stats().CoveredEdges)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	in6P.Store(in6)
	for i, e := range l.Interactions {
		at := time.Now()
		if err := in6.Push(e); err != nil {
			fatal(err)
		}
		if (i+1)%*sampleEv == 0 {
			tcredit.add(sample{index: int64(i + 1), at: at})
		}
	}
	if err := in6.Close(context.Background()); err != nil {
		fatal(err)
	}
	tfresh := tcredit.done(in6.Stats().CoveredEdges)
	counts := tr6.CountsNow()
	ts := tr6.Snapshot(0)
	rep.TraceSampleEvery = *traceEvery
	rep.TraceSampled = counts.Sampled
	rep.TraceCompleted = counts.Completed
	rep.TraceCancelled = counts.Cancelled
	rep.TraceLost = counts.Lost
	rep.TraceEvicted = counts.Evicted
	rep.TraceInflight = counts.Inflight
	// Per-stage percentiles come from the exact stamps in the completed-
	// record ring, not the exposition histograms: the histogram buckets
	// are sized for dashboards, and their interpolation error would eat
	// most of the attribution-gap budget.
	perStage := make([][]time.Duration, trace.NumStages)
	var stageTotal time.Duration
	var e2es []time.Duration
	for _, rec := range tr6.Recent(1 << 14) {
		if rec.Outcome != trace.OutcomeCompleted {
			continue
		}
		prev := rec.Stamps[trace.StageAccept]
		for _, s := range trace.PipelineOrder[1:] {
			at := rec.Stamps[s]
			if at == 0 {
				continue
			}
			perStage[s] = append(perStage[s], time.Duration(at-prev))
			stageTotal += time.Duration(at - prev)
			prev = at
		}
		e2es = append(e2es, time.Duration(rec.Stamps[trace.StageServeVisible]-rec.Stamps[trace.StageAccept]))
	}
	for _, s := range trace.PipelineOrder[1:] {
		d := perStage[s]
		st := trace.StageStats{
			Count: int64(len(d)),
			P50Ms: percentileMs(d, 50),
			P90Ms: percentileMs(d, 90),
			P99Ms: percentileMs(d, 99),
		}
		if len(d) > 0 {
			var sum time.Duration
			for _, x := range d {
				sum += x
			}
			st.MeanMs = float64(sum) / float64(len(d)) / float64(time.Millisecond)
		}
		rep.TraceStages = append(rep.TraceStages, trace.StageLatency{Stage: s.String(), StageStats: st})
		rep.TraceStageP50Sum += st.P50Ms
	}
	if len(e2es) > 0 {
		rep.TraceStageMeanSum = float64(stageTotal) / float64(len(e2es)) / float64(time.Millisecond)
	}
	rep.TraceE2EP50Ms = percentileMs(e2es, 50)
	rep.TraceE2EP99Ms = percentileMs(e2es, 99)
	rep.TraceIndepP50Ms = percentileMs(tfresh, 50)
	rep.TraceIndepP99Ms = percentileMs(tfresh, 99)
	rep.TraceIndepMeanMs = meanMs(tfresh)
	rep.TraceIndepSamples = len(tfresh)
	if rep.TraceIndepMeanMs > 0 {
		rep.TraceAttrGap = abs(rep.TraceStageMeanSum-rep.TraceIndepMeanMs) / rep.TraceIndepMeanMs
	}
	if ts.SLO != nil {
		rep.SLOObjectiveMs = ts.SLO.ObjectiveMs
		rep.SLOTarget = ts.SLO.Target
		rep.SLOAttainment = ts.SLO.Attainment
		rep.SLOBudgetRemain = ts.SLO.BudgetRemaining
		rep.SLOBurnRate = ts.SLO.BurnRate
	}
	fmt.Fprintf(os.Stderr, "benchstream: traced run (1/%d): %d sampled, %d completed; e2e p50 %.0fms (independent %.0fms); stage-mean sum %.0fms vs independent mean %.0fms (gap %.1f%%); SLO attainment %.4f\n",
		*traceEvery, counts.Sampled, counts.Completed, rep.TraceE2EP50Ms, rep.TraceIndepP50Ms,
		rep.TraceStageMeanSum, rep.TraceIndepMeanMs, rep.TraceAttrGap*100, rep.SLOAttainment)

	// Phase 7: the tracing-overhead A/B. Interleaved pairs of identical
	// intake-only ingests (no interval checkpoints, so the comparison
	// isolates the hot path), tracing absent vs sampled at 1/1024, with
	// the regression of the medians gated.
	runIngest := func(i int, ovTr *trace.Tracer) float64 {
		dir := filepath.Join(work, fmt.Sprintf("overhead-%d", i))
		ino, err := stream.New(stream.Config{
			Dir:             dir,
			Omega:           omega,
			NumNodes:        l.NumNodes,
			CheckpointEvery: -1,
			SegmentBytes:    *segBytes,
			Tracer:          ovTr,
		})
		if err != nil {
			fatal(err)
		}
		runtime.GC() // keep the previous run's garbage off this one's clock
		ovStart := time.Now()
		for _, e := range l.Interactions {
			if err := ino.Push(e); err != nil {
				fatal(err)
			}
		}
		// Time through the full drain, not just the push loop: the push
		// loop alone races the absorber for CPU, and how that race goes is
		// scheduler luck, not tracing cost.
		for ino.Stats().Emitted < int64(l.Len()) {
			time.Sleep(time.Millisecond)
		}
		d := time.Since(ovStart)
		if err := ino.Close(context.Background()); err != nil {
			fatal(err)
		}
		os.RemoveAll(dir)
		return float64(l.Len()) / d.Seconds()
	}
	runIngest(2**ovPairs, nil) // untimed warmup: page cache, heap sizing
	var offEPS, onEPS, ratios []float64
	for i := 0; i < *ovPairs; i++ {
		off := runIngest(2*i, nil)
		on := runIngest(2*i+1, trace.New(trace.Config{SampleEvery: 1024, MaxInflight: 1 << 20}))
		offEPS = append(offEPS, off)
		onEPS = append(onEPS, on)
		ratios = append(ratios, on/off)
	}
	rep.OverheadPairs = *ovPairs
	rep.OverheadBaseEPS = median(offEPS)
	rep.OverheadTracedEPS = median(onEPS)
	// The overhead is the median of the paired ratios, not the ratio of
	// the medians: machine noise is correlated within a back-to-back
	// pair, so pairing cancels most of it.
	rep.TraceOverhead = 1 - median(ratios)
	fmt.Fprintf(os.Stderr, "benchstream: overhead A/B (%d pairs): %.0f edges/s untraced, %.0f edges/s at 1/1024 (%.2f%% overhead)\n",
		*ovPairs, rep.OverheadBaseEPS, rep.OverheadTracedEPS, rep.TraceOverhead*100)

	// Phase 8: the bounded-memory long run. Retain fixes the retained
	// history in ticks while the same stream grows 4× across forced
	// checkpoints, so resident sketch bytes and the on-disk sidecar
	// footprint must plateau instead of tracking the stream. Each
	// quarter is measured right after its checkpoint; the plateau gate
	// compares the last quarter against the second (the first still
	// carries pre-retention history, because chunks are only shed once
	// their sidecars are durable). Afterwards the final checkpoint must
	// be byte-identical to the offline one-pass scan over exactly the
	// suffix its metadata claims is retained, and a window-restricted
	// spread query must agree between the published summaries and that
	// offline suffix scan.
	retain := l.WindowFromPercent(*retainPct)
	if retain < omega {
		retain = omega
	}
	rep.RetainTicks = retain
	dir8 := filepath.Join(work, "bounded")
	reg8 := obs.NewRegistry()
	var boundedSum *core.ApproxSummaries
	in8, err := stream.New(stream.Config{
		Dir:             dir8,
		Omega:           omega,
		NumNodes:        l.NumNodes,
		Retain:          retain,
		ProfileWindow:   omega,
		CheckpointEvery: -1,
		IdleFlush:       -1,
		SegmentBytes:    *segBytes,
		Registry:        reg8,
		// The compactor serializes publishes and Close joins it, so after
		// Close this holds the final checkpoint's summaries.
		Publish: func(s *core.ApproxSummaries) { boundedSum = s },
	})
	if err != nil {
		fatal(err)
	}
	quarter := (l.Len() + 3) / 4
	for q := 0; q < 4; q++ {
		for _, e := range l.Interactions[q*quarter : min((q+1)*quarter, l.Len())] {
			if err := in8.Push(e); err != nil {
				fatal(err)
			}
		}
		if err := in8.Checkpoint(context.Background()); err != nil {
			fatal(err)
		}
		snap8 := reg8.Snapshot()
		st8 := in8.Stats()
		ph := boundedPhase{Edges: st8.Emitted, RetiredChunks: st8.RetiredChunks, RetiredEdges: st8.RetiredEdges}
		if v, ok := snap8[stream.MetricSketchBytes].(int64); ok {
			ph.SketchBytes = v
		}
		var written, reclaimed int64
		if v, ok := snap8[stream.MetricChunkFileBytes].(int64); ok {
			written = v
		}
		if v, ok := snap8[stream.MetricChunkRetiredBytes].(int64); ok {
			reclaimed = v
		}
		ph.ChunkBytes = written - reclaimed
		rep.BoundedQuarters = append(rep.BoundedQuarters, ph)
	}
	if err := in8.Close(context.Background()); err != nil {
		fatal(err)
	}
	first, base, lastQ := rep.BoundedQuarters[0], rep.BoundedQuarters[1], rep.BoundedQuarters[3]
	rep.BoundedGrowth = float64(lastQ.Edges) / float64(first.Edges)
	rep.BoundedRetiredChunks = lastQ.RetiredChunks
	rep.BoundedRetiredEdges = lastQ.RetiredEdges
	if base.SketchBytes > 0 {
		rep.BoundedSketchRatio = float64(lastQ.SketchBytes) / float64(base.SketchBytes)
	}
	if base.ChunkBytes > 0 {
		rep.BoundedChunkRatio = float64(lastQ.ChunkBytes) / float64(base.ChunkBytes)
	}
	var meta8 ckptMeta
	raw8, err := os.ReadFile(filepath.Join(dir8, stream.CheckpointMetaName))
	if err != nil {
		fatal(err)
	}
	if err := json.Unmarshal(raw8, &meta8); err != nil {
		fatal(err)
	}
	suffix := &graph.Log{NumNodes: l.NumNodes, Interactions: l.Interactions[meta8.RetiredEdges:]}
	sufSum, err := core.ComputeApprox(suffix, omega, core.DefaultPrecision)
	if err != nil {
		fatal(err)
	}
	var sufBuf bytes.Buffer
	if _, err := sufSum.WriteTo(&sufBuf); err != nil {
		fatal(err)
	}
	rep.IdentityBounded = checkpointMatches(dir8, sufBuf.Bytes())
	windowSeeds := []graph.NodeID{0, 1, 2}
	windowAt := int64(l.Interactions[l.Len()-1].At) - omega + 1
	rep.BoundedWindowAgree = boundedSum != nil &&
		boundedSum.SpreadEstimateWindow(windowSeeds, windowAt, omega) == sufSum.SpreadEstimateWindow(windowSeeds, windowAt, omega)
	fmt.Fprintf(os.Stderr, "benchstream: bounded run (retain %d ticks): edges ×%.1f, sketch %.0f KiB → %.0f KiB (×%.2f), disk %.0f KiB → %.0f KiB (×%.2f), %d chunks / %d edges retired, suffix identity %v, window agree %v\n",
		retain, rep.BoundedGrowth,
		float64(base.SketchBytes)/1024, float64(lastQ.SketchBytes)/1024, rep.BoundedSketchRatio,
		float64(base.ChunkBytes)/1024, float64(lastQ.ChunkBytes)/1024, rep.BoundedChunkRatio,
		rep.BoundedRetiredChunks, rep.BoundedRetiredEdges, rep.IdentityBounded, rep.BoundedWindowAgree)

	// Phase 9: the cluster phase. The scatter-gather identity is exact on
	// streams without cross-shard multi-hop channels, so the phase runs
	// over a bipartite copy of the log: sources in the lower half of the
	// node space, destinations in the upper half, timestamps unchanged
	// (still strictly increasing). The same copy is ingested three ways —
	// a real single-node stack (stream.Ingester into serve.Server), a
	// 1-shard cluster, and a -shards cluster — then every battery query
	// is compared byte-for-byte between the single-node server and the
	// sharded frontend, and merge-query latency is sampled on the
	// frontend. Intake here is forced-checkpoint only: the number
	// isolates routing overhead, and since every shard shares this
	// machine's cores it does NOT measure scale-out.
	if *shards > 0 {
		half := l.NumNodes / 2
		bip := make([]graph.Interaction, l.Len())
		for i, e := range l.Interactions {
			bip[i] = graph.Interaction{
				Src: graph.NodeID(int(e.Src) % half),
				Dst: graph.NodeID(half + int(e.Dst)%half),
				At:  e.At,
			}
		}
		rep.ClusterShards = *shards

		srv9 := serve.New(serve.Config{})
		in9, err := stream.New(stream.Config{
			Dir:             filepath.Join(work, "cluster-single"),
			Omega:           omega,
			NumNodes:        l.NumNodes,
			CheckpointEvery: -1,
			IdleFlush:       -1,
			Publish:         srv9.LoadApprox,
		})
		if err != nil {
			fatal(err)
		}
		for _, e := range bip {
			if err := in9.Push(e); err != nil {
				fatal(err)
			}
		}
		if err := in9.Close(context.Background()); err != nil {
			fatal(err)
		}
		singleMux := http.NewServeMux()
		srv9.Register(singleMux)

		runCluster := func(k int) (*cluster.Ingester, float64) {
			cl, err := cluster.New(cluster.Config{
				Shards: k,
				Dir:    filepath.Join(work, fmt.Sprintf("cluster-%d", k)),
				Stream: stream.Config{
					Omega:           omega,
					NumNodes:        l.NumNodes,
					CheckpointEvery: -1,
					IdleFlush:       -1,
				},
			})
			if err != nil {
				fatal(err)
			}
			clStart := time.Now()
			for _, e := range bip {
				if err := cl.Push(e); err != nil {
					fatal(err)
				}
			}
			for cl.Stats().Emitted < int64(len(bip)) {
				time.Sleep(time.Millisecond)
			}
			eps := float64(len(bip)) / time.Since(clStart).Seconds()
			if err := cl.Checkpoint(context.Background()); err != nil {
				fatal(err)
			}
			return cl, eps
		}
		cl1, eps1 := runCluster(1)
		rep.ClusterEPS1 = eps1
		if err := cl1.Close(context.Background()); err != nil {
			fatal(err)
		}
		clK, epsK := runCluster(*shards)
		rep.ClusterEPSK = epsK
		frontend := cluster.NewFrontend(clK.Gather()).Handler()

		mid := int64(bip[len(bip)/2].At)
		battery := []string{
			"/influence?node=0",
			fmt.Sprintf("/influence?node=%d", half-1),
			fmt.Sprintf("/influence?node=%d", half),
			fmt.Sprintf("/influence?node=%d", l.NumNodes-1),
			"/spread?seeds=0,1,2,3,4",
			fmt.Sprintf("/spread?seeds=7,%d,%d", half+3, l.NumNodes-1),
			"/topk?k=5",
			fmt.Sprintf("/spreadby?seeds=0,1,2&deadline=%d", mid),
			fmt.Sprintf("/spreadwindow?seeds=0,1,2&at=%d", mid),
			"/stats",
		}
		rep.IdentityCluster = true
		for _, q := range battery {
			wantRec := httptest.NewRecorder()
			singleMux.ServeHTTP(wantRec, httptest.NewRequest("GET", q, nil))
			gotRec := httptest.NewRecorder()
			frontend.ServeHTTP(gotRec, httptest.NewRequest("GET", q, nil))
			if wantRec.Code != gotRec.Code || wantRec.Body.String() != gotRec.Body.String() {
				rep.IdentityCluster = false
				fmt.Fprintf(os.Stderr, "benchstream: cluster identity violation on %s:\n  single: %d %s  merged: %d %s",
					q, wantRec.Code, wantRec.Body.String(), gotRec.Code, gotRec.Body.String())
			}
		}

		// Merge-query latency: repeated battery sweeps against the sharded
		// frontend, each request timed individually. The first sweep merges
		// the requested nodes' per-shard sketches at answer time; the later
		// ones are served from the frontend's result cache.
		var qlat []time.Duration
		for sweep := 0; sweep < 40; sweep++ {
			for _, q := range battery {
				req := httptest.NewRequest("GET", q, nil)
				qStart := time.Now()
				frontend.ServeHTTP(httptest.NewRecorder(), req)
				qlat = append(qlat, time.Since(qStart))
			}
		}
		rep.ClusterQueryCount = len(qlat)
		rep.ClusterQueryP50Ms = percentileMs(qlat, 50)
		rep.ClusterQueryP99Ms = percentileMs(qlat, 99)
		if err := clK.Close(context.Background()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchstream: cluster phase: identity %v at %d shards; intake %.0f edges/s (1 shard) vs %.0f edges/s (%d shards, shared cores); merge query p50 %.2fms p99 %.2fms (%d queries)\n",
			rep.IdentityCluster, *shards, rep.ClusterEPS1, rep.ClusterEPSK, *shards,
			rep.ClusterQueryP50Ms, rep.ClusterQueryP99Ms, rep.ClusterQueryCount)
	}

	// Phase 10: kill the primary. 70% of the log streams through a
	// replication primary while -replicas replicas follow over TCP, each
	// publishing read-only checkpoints into its own query server. The
	// primary is then killed outright; the failover controller notices
	// the silence, promotes the most-caught-up replica (sealing the
	// replicated tail under a new epoch), and the remaining 30% of the
	// log resumes on the promoted ingester. Three gates: the promoted
	// checkpoint is byte-identical to the offline scan over exactly the
	// replicated prefix, the failover (kill → promoted replica answering
	// queries from sealed state) beats -failover-deadline, and the final
	// checkpoint after the resumed feed matches the full offline scan.
	if *replicas > 0 {
		rep.ReplReplicas = *replicas
		rep.ReplFailoverBudget = failoverBy.String()
		cut := l.Len() * 7 / 10
		in10, err := stream.New(stream.Config{
			Dir:             filepath.Join(work, "repl-primary"),
			Omega:           omega,
			NumNodes:        l.NumNodes,
			CheckpointEvery: -1,
			IdleFlush:       -1,
		})
		if err != nil {
			fatal(err)
		}
		prim, err := repl.NewPrimary(repl.PrimaryConfig{Ingester: in10, HeartbeatEvery: 50 * time.Millisecond})
		if err != nil {
			fatal(err)
		}
		followers := make([]*repl.Replica, *replicas)
		servers := make([]*serve.Server, *replicas)
		dirs := make([]string, *replicas)
		for i := range followers {
			srv := serve.New(serve.Config{ReadOnly: true})
			dirs[i] = filepath.Join(work, fmt.Sprintf("repl-replica-%d", i))
			// Followers checkpoint as they apply, like a real read-serving
			// replica: the promote fold is then incremental over a warm
			// cache, so the measured failover time is detection + sealing
			// a bounded tail, not a cold refold of the whole replicated
			// history. The cadence is edge-count based (every ~20% of the
			// stream) rather than the run's wall-clock interval — a
			// replica catching up over a fast local pipe applies edges far
			// above the sustained rate, and an interval shorter than one
			// fold would make it fold back to back instead of applying.
			r, err := repl.NewReplica(repl.ReplicaConfig{
				Dir:             dirs[i],
				PrimaryAddr:     prim.Addr(),
				CheckpointEvery: -1,
				CheckpointEdges: max(l.Len()/5, 1),
				Publish:         srv.LoadApprox,
			})
			if err != nil {
				fatal(err)
			}
			followers[i], servers[i] = r, srv
		}
		ctl, err := repl.NewController(repl.ControllerConfig{Replicas: followers, Timeout: 500 * time.Millisecond})
		if err != nil {
			fatal(err)
		}

		for _, e := range l.Interactions[:cut] {
			if err := in10.Push(e); err != nil {
				fatal(err)
			}
		}
		if err := in10.Checkpoint(context.Background()); err != nil {
			fatal(err)
		}
		fed := in10.Stats().Emitted
		rep.ReplFedEdges = fed
		catchup := time.Now().Add(120 * time.Second)
		lastLog := time.Now()
		for _, r := range followers {
			for r.Position() < fed {
				if time.Now().After(catchup) {
					pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
					fatal(fmt.Errorf("replica stuck at %d/%d before the kill (sessions=%d, err=%v)", r.Position(), fed, prim.Sessions(), r.Err()))
				}
				if time.Since(lastLog) > 10*time.Second {
					fmt.Fprintf(os.Stderr, "benchstream: replica catch-up %d/%d (sessions=%d)\n", r.Position(), fed, prim.Sessions())
					lastLog = time.Now()
				}
				time.Sleep(time.Millisecond)
			}
		}

		// The kill: listener and ingester gone, sessions severed.
		killAt := time.Now()
		prim.Close()
		if err := in10.Close(context.Background()); err != nil {
			fatal(err)
		}
		var winner *repl.Replica
		for winner == nil {
			if time.Since(killAt) > 60*time.Second {
				fatal(fmt.Errorf("failover controller never promoted"))
			}
			winner = ctl.Promoted()
			time.Sleep(time.Millisecond)
		}
		ctl.Stop()
		wi := 0
		for i, r := range followers {
			if r == winner {
				wi = i
			}
		}
		// Failover completes when the promoted replica answers a query
		// from its sealed (post-promotion) state: Promote checkpoints,
		// the checkpoint publishes, the server answers.
		q := httptest.NewRequest("GET", "/influence?node=0", nil)
		qRec := httptest.NewRecorder()
		servers[wi].Handler().ServeHTTP(qRec, q)
		if qRec.Code != http.StatusOK {
			fatal(fmt.Errorf("promoted replica answered %d to the failover query", qRec.Code))
		}
		rep.ReplFailoverMs = float64(time.Since(killAt).Microseconds()) / 1e3
		pos := winner.Position()
		rep.ReplPromotePosition = pos

		prefix := &graph.Log{NumNodes: l.NumNodes, Interactions: l.Interactions[:pos]}
		offPrefix, err := core.ComputeApprox(prefix, omega, core.DefaultPrecision)
		if err != nil {
			fatal(err)
		}
		var offPrefixBuf bytes.Buffer
		if _, err := offPrefix.WriteTo(&offPrefixBuf); err != nil {
			fatal(err)
		}
		rep.IdentityReplPrefix = checkpointMatches(dirs[wi], offPrefixBuf.Bytes())

		// Intake resumes on the promoted replica; the final state must
		// match the offline scan over the whole log.
		for _, e := range l.Interactions[cut:] {
			if err := winner.Ingester().Push(e); err != nil {
				fatal(err)
			}
		}
		if err := winner.Ingester().Checkpoint(context.Background()); err != nil {
			fatal(err)
		}
		rep.ReplResumedEdges = int64(l.Len() - cut)
		rep.IdentityReplFinal = checkpointMatches(dirs[wi], offlineBuf.Bytes())
		for _, r := range followers {
			if err := r.Close(context.Background()); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "benchstream: kill-the-primary: %d replica(s), killed at %d edges, promoted at position %d in %.0fms (deadline %s); prefix identity %v, final identity %v\n",
			*replicas, fed, pos, rep.ReplFailoverMs, *failoverBy, rep.IdentityReplPrefix, rep.IdentityReplFinal)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "benchstream: wrote %s\n", *out)

	switch {
	case !rep.IdentityInOrder:
		fatal(fmt.Errorf("in-order checkpoint differs from the offline scan"))
	case !rep.IdentitySkewed:
		fatal(fmt.Errorf("skewed replay diverged (drops=%d)", rep.SkewedDrops))
	case !rep.IdentityRecover:
		fatal(fmt.Errorf("recovery checkpoint differs from the offline scan"))
	case !rep.IdentityIncremental:
		fatal(fmt.Errorf("incremental fold differs from the offline scan"))
	case !rep.IdentitySuffix:
		fatal(fmt.Errorf("suffix-replay recovery diverged"))
	case rep.Checkpoints < 1:
		fatal(fmt.Errorf("sustained run published no checkpoints"))
	case *minIntakeEPS > 0 && rep.SustainedEPS < *minIntakeEPS:
		fatal(fmt.Errorf("sustained intake %.0f edges/s below the %.0f floor", rep.SustainedEPS, *minIntakeEPS))
	case rep.FoldSpeedup < *minSpeedup:
		fatal(fmt.Errorf("fold speedup %.2fx below the %.2fx gate", rep.FoldSpeedup, *minSpeedup))
	case rep.RecoveredWALEdges != 0 || rep.RecoveredChunkEdges != int64(l.Len()):
		fatal(fmt.Errorf("recovery replayed %d WAL edges (want 0) and %d sidecar edges (want %d)",
			rep.RecoveredWALEdges, rep.RecoveredChunkEdges, l.Len()))
	case rep.WALDeletedSegments < 1:
		fatal(fmt.Errorf("no WAL segments deleted across %d rotations", rep.WALSegments))
	case rep.SuffixReplayWALEdges < 1:
		fatal(fmt.Errorf("suffix recovery replayed no WAL edges — the deleted sidecars were not exercised"))
	case rep.TraceSampled < 1:
		fatal(fmt.Errorf("traced run sampled no edges (%d edges at 1/%d — raise -edges or lower -trace-every)", rep.Edges, rep.TraceSampleEvery))
	case rep.TraceCompleted != rep.TraceSampled || rep.TraceInflight != 0 ||
		rep.TraceLost != 0 || rep.TraceEvicted != 0 || rep.TraceCancelled != 0:
		fatal(fmt.Errorf("traced edges not exactly-once: sampled %d, completed %d, inflight %d, lost %d, evicted %d, cancelled %d",
			rep.TraceSampled, rep.TraceCompleted, rep.TraceInflight, rep.TraceLost, rep.TraceEvicted, rep.TraceCancelled))
	case rep.TraceAttrGap > *maxAttrGap:
		fatal(fmt.Errorf("stage-mean sum %.1fms vs independent e2e mean %.1fms: gap %.1f%% exceeds the %.0f%% gate",
			rep.TraceStageMeanSum, rep.TraceIndepMeanMs, rep.TraceAttrGap*100, *maxAttrGap*100))
	case rep.TraceOverhead > *maxTraceOv:
		fatal(fmt.Errorf("1/1024 tracing costs %.2f%% sustained intake, above the %.0f%% gate",
			rep.TraceOverhead*100, *maxTraceOv*100))
	case rep.BoundedGrowth < 4:
		fatal(fmt.Errorf("bounded-memory run grew %.1fx, want ≥4x", rep.BoundedGrowth))
	case rep.BoundedRetiredChunks < 1:
		fatal(fmt.Errorf("bounded-memory run retired no chunks — raise -edges or shrink -retain"))
	case rep.BoundedSketchRatio > *maxPlateau:
		fatal(fmt.Errorf("sketch RAM grew ×%.2f from the second to the last quarter, above the ×%.2f plateau gate",
			rep.BoundedSketchRatio, *maxPlateau))
	case rep.BoundedChunkRatio > *maxPlateau:
		fatal(fmt.Errorf("on-disk chunk bytes grew ×%.2f from the second to the last quarter, above the ×%.2f plateau gate",
			rep.BoundedChunkRatio, *maxPlateau))
	case !rep.IdentityBounded:
		fatal(fmt.Errorf("bounded-memory checkpoint differs from the offline scan over the retained suffix"))
	case !rep.BoundedWindowAgree:
		fatal(fmt.Errorf("window-restricted spread disagrees between the bounded run and the offline suffix scan"))
	case *shards > 0 && !rep.IdentityCluster:
		fatal(fmt.Errorf("scatter-gather answers at %d shards differ from the single-node server", *shards))
	case *replicas > 0 && !rep.IdentityReplPrefix:
		fatal(fmt.Errorf("promoted replica checkpoint differs from the offline scan over the replicated prefix"))
	case *replicas > 0 && !rep.IdentityReplFinal:
		fatal(fmt.Errorf("post-failover final checkpoint differs from the full offline scan"))
	case *replicas > 0 && rep.ReplFailoverMs > float64(failoverBy.Milliseconds()):
		fatal(fmt.Errorf("failover took %.0fms, above the %s deadline", rep.ReplFailoverMs, *failoverBy))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// median returns the middle value of the sorted copy, 0 on empty input.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64{}, v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// checkpointMatches reads dir's checkpoint snapshot and compares it
// byte-for-byte with the offline encoding.
func checkpointMatches(dir string, want []byte) bool {
	got, err := os.ReadFile(filepath.Join(dir, stream.CheckpointName))
	if err != nil {
		fatal(err)
	}
	return bytes.Equal(got, want)
}

// shuffleBounded permutes within blocks of skew+1 positions, the same
// bounded-displacement contract cmd/gennet -stream emits.
func shuffleBounded(edges []graph.Interaction, skew int, seed int64) {
	if skew <= 0 {
		return
	}
	// Small deterministic LCG; benchmarks must not depend on rand's
	// default source changing between releases.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for lo := 0; lo < len(edges); lo += skew + 1 {
		hi := min(lo+skew+1, len(edges))
		for i := hi - lo - 1; i > 0; i-- {
			j := next(i + 1)
			edges[lo+i], edges[lo+j] = edges[lo+j], edges[lo+i]
		}
	}
}

// percentileMs returns the p-th percentile in milliseconds
// (nearest-rank on the sorted copy), 0 on an empty slice.
// meanMs returns the mean of d in milliseconds, 0 on empty input.
func meanMs(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return float64(sum) / float64(len(d)) / float64(time.Millisecond)
}

func percentileMs(d []time.Duration, p int) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration{}, d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchstream: %v\n", err)
	os.Exit(1)
}
