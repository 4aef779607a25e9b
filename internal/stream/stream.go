// Package stream is the live ingestion subsystem: it turns a feed of
// timestamped interactions into continuously refreshed IRS summaries and
// hands them to the serving layer without a restart.
//
// The pipeline, in edge order:
//
//	sources (TCP / HTTP / file tail / ReadFrom)
//	  → reordering buffer (bounded out-of-order tolerance, watermarks)
//	  → write-ahead log (durable, crash-safe segment rotation)
//	  → pending batch → sealed chunks (core.IncrementalApprox)
//	  → background compactor: fold → checkpoint.irx → Publish
//
// One goroutine — the run loop — owns the reorder buffer, the WAL, and
// the incremental sketch state, so none of them need locks. The
// compactor is a second goroutine that folds immutable ChunkView
// snapshots; ingestion never stalls behind a checkpoint. Publishing is a
// callback (wired to serve.Server.LoadApprox in process) so the serving
// layer's generation-counted swap is the only handoff point.
//
// The compactor runs two kinds of job. A durable checkpoint (every
// CheckpointEvery, on the edge trigger, forced, at recovery and at
// Close) seals the pending batch, folds, persists sidecars, writes
// checkpoint.irx and its metadata, publishes, and retires. Halfway
// between two interval checkpoints a publish-only job folds the sealed
// chunks plus a copy of the unsealed pending tail (core.ChunkView
// FoldTail) and publishes it, writing nothing: the run loop fsyncs the
// WAL through the tail first, so a published edge always survives a
// crash. Stats.CoveredEdges follows every publish; the metadata file,
// and Stats.DurableEdges, follow only durable checkpoints.
//
// Durability is two-tier. Chunk sidecars (chunkfile.go) persist each
// sealed chunk's edges and block-local sketches the next time the
// compactor runs, so recovery loads the sidecar prefix with
// AppendSealedChunk — no rescan — and replays only the WAL suffix past
// it (truncating a torn tail in the final segment only). WAL segments
// entirely covered by durable sidecars are deleted, bounding the log.
// The fold cache seeded from checkpoint.irx makes the first
// post-recovery checkpoint incremental too. Chunk boundaries do not
// affect fold output, so the recovered summaries are byte-identical to
// those of an uninterrupted run over the same emitted prefix — the
// property the crash tests in recovery_test.go pin.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/swhll"
	"ipin/internal/trace"
	"ipin/internal/vhll"
)

// Config parameterizes an Ingester. Dir and Omega are required; every
// other field has a usable zero value.
type Config struct {
	// Dir is the ingester's state directory: WAL segments and checkpoint
	// files live here. Created if missing.
	Dir string
	// Omega is the influence window in ticks (required, >= 1).
	Omega int64
	// Precision is the vHLL sketch precision; 0 selects
	// core.DefaultPrecision.
	Precision int
	// NumNodes is the initial node range; the range grows automatically
	// as the stream introduces larger IDs.
	NumNodes int
	// Slack is the out-of-order tolerance in ticks: an edge may arrive up
	// to Slack ticks behind the newest timestamp seen and still be
	// sequenced. 0 means in-order input (late edges drop immediately).
	Slack int64
	// ChunkEdges is the sealed-chunk size; 0 selects 16384. Smaller
	// chunks lower checkpoint latency, larger ones lower fold overhead.
	ChunkEdges int
	// CheckpointEvery is the interval between automatic checkpoints; 0
	// selects 5s, negative disables interval checkpoints (forced
	// Checkpoint calls and the final Close checkpoint still run).
	CheckpointEvery time.Duration
	// CheckpointEdges additionally triggers a checkpoint whenever this
	// many new edges sealed since the last one; 0 disables the edge
	// trigger.
	CheckpointEdges int
	// IdleFlush bounds how long a buffered edge may wait for the
	// watermark to advance: after this long with no arrivals the reorder
	// buffer flushes fully. 0 selects 250ms, negative disables.
	IdleFlush time.Duration
	// QueueDepth bounds the intake channel; 0 selects 8192. Push blocks
	// when the run loop falls behind.
	QueueDepth int
	// SegmentBytes and SyncEvery configure the WAL (see WALConfig).
	SegmentBytes int64
	SyncEvery    int
	// Epoch, when > 0, asserts the replication fencing epoch this
	// ingester believes it owns: New fails with *FutureEpochError if the
	// directory holds WAL segments from a later epoch (it was taken over
	// by a promoted replica), and rotates the directory up to Epoch if it
	// is behind. 0 adopts the directory's epoch. See WALConfig.Epoch.
	Epoch uint64
	// ProfileWindow, when > 0, additionally maintains sliding-window
	// out-neighborhood profiles (internal/swhll) over the emitted stream,
	// exposed through the live Hot/TopK view and, exactly, after Close.
	// 0 disables them.
	ProfileWindow int64
	// TopK is the size of the continuously-maintained top-k influencer
	// view refreshed at every publish when ProfileWindow enables
	// profiles; 0 selects 10.
	TopK int
	// Retain, when > 0, bounds the retained history in ticks: at every
	// checkpoint, sealed chunks whose entire span lies before
	// LastAt−Retain+1 are retired — dropped from sketch state, their
	// sidecars deleted once the checkpoint metadata recording the new
	// retained range is durable. Published summaries then cover the
	// retained suffix only (byte-identical to the offline scan over it),
	// so Retain must be at least Omega or in-window queries would lose
	// admissible edges. 0 keeps everything forever.
	Retain int64
	// Publish receives each folded summary set, in order: every durable
	// checkpoint and every publish between them. Wire it to
	// serve.Server.LoadApprox for in-process hot swap; nil means
	// checkpoints are only written to disk. The summaries are shared
	// with the ingester's fold cache (the base later incremental folds
	// build on), so the callback must treat them as read-only.
	Publish func(*core.ApproxSummaries)
	// Registry receives the stream_* metrics; nil disables them.
	Registry *obs.Registry
	// Tracer, when non-nil, samples accepted edges into end-to-end trace
	// records stamped at every pipeline stage (see internal/trace). The
	// same Tracer may be handed to a successor ingester over the same
	// directory; New reconciles records open across the restart.
	Tracer *trace.Tracer
	// Journal, when non-nil, receives structured lifecycle events:
	// recovery, segment rotations, chunk seals and persists, checkpoints,
	// compaction deletions.
	Journal *trace.Journal
}

// CheckpointName and CheckpointMetaName are the file names a checkpoint
// writes inside Dir: the IRX1 summary snapshot and its JSON sidecar.
const (
	CheckpointName     = "checkpoint.irx"
	CheckpointMetaName = "checkpoint.meta.json"
)

// Stats is a point-in-time snapshot of ingestion progress, readable from
// any goroutine.
type Stats struct {
	Accepted     int64 // edges accepted from sources into the pipeline (drops excluded)
	Emitted      int64 // edges past the watermark, logged and sealed/pending
	ReorderDrops int64 // edges dropped for exceeding the slack
	Checkpoints  int64 // durable checkpoints written and published
	Publishes    int64 // summary sets handed to Publish: checkpoints plus the publishes between them
	LastAt       int64 // latest emitted timestamp

	// CoveredEdges is the emit index of the last publish: what queries
	// see. DurableEdges is the emit index of the last durable checkpoint,
	// what checkpoint.meta.json records and recovery resumes from
	// without a WAL replay. CoveredEdges >= DurableEdges; the gap is
	// covered by the fsynced WAL.
	CoveredEdges int64
	DurableEdges int64

	// RecoveredChunkEdges and RecoveredWALEdges split the startup
	// recovery by source: edges rebuilt from durable chunk sidecars
	// (no rescan) versus edges replayed from the WAL suffix. Their sum
	// is the recovered prefix; a well-compacted directory recovers
	// almost everything from sidecars.
	RecoveredChunkEdges int64
	RecoveredWALEdges   int64

	// RetiredChunks and RetiredEdges count what the retention horizon
	// has shed from sketch state (Config.Retain); Emitted and
	// CoveredEdges keep counting retired edges — they are emit clocks,
	// not residency gauges.
	RetiredChunks int64
	RetiredEdges  int64
}

// HotView is one published snapshot of the continuously-maintained
// top-k influencer view: the nodes with the largest sliding-window
// out-neighborhood profiles as of the publish that carried it.
type HotView struct {
	// Entries holds the top nodes with their estimated distinct
	// out-neighbor counts, descending, ties broken by smaller NodeID.
	Entries []swhll.TopEntry
	// CoveredEdges is the emit index of the publish.
	CoveredEdges int64
	// LastAt is the newest emitted timestamp the view covers.
	LastAt int64
	// RefreshedAt is when the compactor published the view.
	RefreshedAt time.Time
}

var errClosed = errors.New("stream: ingester closed")

// Ingester is the live intake pipeline. Construct with New, feed edges
// with Push (or the source helpers in source.go), and stop with Close.
type Ingester struct {
	cfg Config
	mx  *metrics
	tr  *trace.Tracer
	jr  *trace.Journal

	intake  chan graph.Interaction
	force   chan chan error // forced Checkpoint requests
	advance chan advanceReq // AdvanceEpoch requests (replica promotion)
	stopped chan struct{}   // closed when the run loop must exit
	done    chan struct{}   // closed when the run loop has exited
	stopMu  sync.Mutex
	closed  bool
	runErr  atomic.Pointer[error]

	// Replication hooks, set by internal/repl. emitSink observes every
	// emitted batch on the run loop; walFloor caps WAL compaction at the
	// replicas' acknowledged position.
	emitSink atomic.Pointer[func(base int64, batch []graph.Interaction)]
	walFloor atomic.Pointer[func() int64]
	epoch    atomic.Uint64

	// Owned by the run loop.
	buf            *reorder
	wal            *WAL
	inc            *core.IncrementalApprox
	pending        []graph.Interaction
	profiles       *swhll.Profiles
	sinceCkpt      int
	walCompactedAt int64 // timestamp DeleteCovered last ran with
	sealLive       bool  // false during New's replay: recovered chunks are not re-stamped

	// Owned by the compactor goroutine (initialized before it starts).
	durableChunks int // sealed chunks already persisted as sidecars
	retiredFloor  int // lowest chunk sidecar index still on disk

	// folds carries jobs to the compactor goroutine. foldsPending counts
	// submitted-but-unfinished durable checkpoints, so interval and edge
	// triggers can skip without sealing while one is in flight;
	// tailsPending counts publish-only jobs, which a durable trigger
	// queues behind (the one-slot buffer) instead of skipping.
	folds        chan foldJob
	foldsPending atomic.Int32
	tailsPending atomic.Int32

	accepted    atomic.Int64
	emitted     atomic.Int64
	drops       atomic.Int64
	checkpoints atomic.Int64
	publishes   atomic.Int64
	lastAt      atomic.Int64
	ckptEdges   atomic.Int64 // durable coverage: emit index of the last checkpoint
	pubEdges    atomic.Int64 // published coverage: emit index of the last publish
	lastCkpt    atomic.Int64 // unix nanos of the last durable checkpoint
	lastPub     atomic.Int64 // unix nanos of the last publish
	durableAt   atomic.Int64 // newest timestamp covered by durable sidecars
	wmLag       atomic.Int64 // maxSeen − watermark, in ticks (health surface)
	bufDepth    atomic.Int64 // reorder buffer depth (health surface)

	retiredChunks atomic.Int64 // chunks shed from sketch state (run loop writes)
	retiredEdges  atomic.Int64 // edges inside those chunks
	sketchBytes   atomic.Int64 // retained block-local sketch bytes, as of the last checkpoint
	hot           atomic.Pointer[HotView]

	recoveredChunkEdges int64 // set once in New, before the loops start
	recoveredWALEdges   int64
}

// foldJob asks the compactor to fold one snapshot; done, when non-nil,
// receives the result exactly once. cause labels the trigger in the
// journal. hot is the refreshed top-k view the run loop computed when
// it cut the snapshot (nil when profiles are disabled); the compactor
// publishes it alongside the summaries. A publishOnly job folds view
// plus tail, its own copy of the unsealed pending edges, and publishes
// without writing anything; otherwise the job is a durable checkpoint.
type foldJob struct {
	view        core.ChunkView
	tail        []graph.Interaction
	publishOnly bool
	hot         []swhll.TopEntry
	cause       string
	done        chan error
}

// advanceReq asks the run loop to advance the WAL fencing epoch — the
// sealing step of replica promotion. done receives the result exactly
// once.
type advanceReq struct {
	epoch uint64
	done  chan error
}

// New opens (or creates) the state directory, loads the durable chunk
// sidecars, replays the WAL suffix past them, rebuilds the sketch state,
// seeds the fold cache from the checkpoint, publishes a recovery
// checkpoint when anything was recovered, deletes WAL segments the
// sidecars cover, and starts the intake loop and compactor.
func New(cfg Config) (*Ingester, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("stream: Config.Dir is required")
	}
	if cfg.Omega < 1 {
		return nil, fmt.Errorf("stream: Config.Omega must be >= 1, got %d", cfg.Omega)
	}
	if cfg.Slack < 0 {
		return nil, fmt.Errorf("stream: negative Slack %d", cfg.Slack)
	}
	if cfg.Retain < 0 {
		return nil, fmt.Errorf("stream: negative Retain %d", cfg.Retain)
	}
	if cfg.Retain > 0 && cfg.Retain < cfg.Omega {
		return nil, fmt.Errorf("stream: Retain %d shorter than Omega %d would retire admissible edges", cfg.Retain, cfg.Omega)
	}
	if cfg.TopK < 0 {
		return nil, fmt.Errorf("stream: negative TopK %d", cfg.TopK)
	}
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	if cfg.Precision == 0 {
		cfg.Precision = core.DefaultPrecision
	}
	if cfg.ChunkEdges <= 0 {
		cfg.ChunkEdges = 16384
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5 * time.Second
	}
	if cfg.IdleFlush == 0 {
		cfg.IdleFlush = 250 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8192
	}
	startNew := time.Now()
	mx := newMetrics(cfg.Registry)
	in := &Ingester{
		cfg:     cfg,
		mx:      mx,
		tr:      cfg.Tracer,
		jr:      cfg.Journal,
		intake:  make(chan graph.Interaction, cfg.QueueDepth),
		force:   make(chan chan error),
		advance: make(chan advanceReq),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
		folds:   make(chan foldJob, 1),
		buf:     newReorder(cfg.Slack, mx, cfg.Tracer),
	}
	// The ages are computed at exposition time: a push-style gauge can
	// only report the age as of its last incidental update.
	ageOf := func(at *atomic.Int64) func() int64 {
		return func() int64 {
			if ns := at.Load(); ns != 0 {
				return int64(time.Since(time.Unix(0, ns)).Seconds())
			}
			return 0
		}
	}
	cfg.Registry.GaugeFunc(MetricCheckpointAge, "Seconds since the last durable checkpoint.", ageOf(&in.lastCkpt))
	cfg.Registry.GaugeFunc(MetricPublishAge, "Seconds since the last publish, durable or between checkpoints.", ageOf(&in.lastPub))
	inc, err := core.NewIncrementalApprox(cfg.Omega, cfg.Precision, cfg.NumNodes)
	if err != nil {
		return nil, err
	}
	in.inc = inc
	if cfg.ProfileWindow > 0 {
		p, err := swhll.NewProfiles(cfg.NumNodes, cfg.Precision, cfg.ProfileWindow)
		if err != nil {
			return nil, err
		}
		in.profiles = p
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	// The checkpoint metadata is the durable record of retirement: chunks
	// below meta.FirstChunk were shed from sketch state, and their
	// sidecars (and the WAL segments covering them) may already be gone.
	// It is read FIRST so the sidecar load knows its floor — a sidecar
	// below the floor is a crash leftover, not a gap.
	meta := readCheckpointMeta(cfg.Dir)
	floor, metaRetired, metaLastAt := 0, 0, int64(math.MinInt64)
	if meta != nil {
		floor, metaRetired, metaLastAt = meta.FirstChunk, meta.RetiredEdges, meta.LastAt
	}
	if floor > 0 || metaRetired > 0 {
		if err := inc.ResumeAt(floor, metaRetired); err != nil {
			return nil, fmt.Errorf("stream: resume after retirement: %w", err)
		}
	}
	// Tier 1: durable chunk sidecars. Each carries a sealed chunk's edges
	// and block-local sketches, so the state rebuilds without a rescan.
	sidecars, err := loadChunks(cfg.Dir, floor)
	if err != nil {
		return nil, err
	}
	chunkLastAt := int64(math.MinInt64)
	var chunkEdges int64
	for _, c := range sidecars {
		if c.omega != cfg.Omega || c.precision != cfg.Precision {
			// The sidecar was written under a different configuration; its
			// cached sketches are useless, but its edges are not — rescan.
			if err := in.seal(c.edges); err != nil {
				return nil, fmt.Errorf("stream: chunk sidecar %d replay: %w", c.index, err)
			}
		} else {
			locals, nodes := c.locals, c.numNodes
			if n := inc.NumNodes(); n > nodes {
				// The configured node range outgrew the sidecar's; pad with
				// nils, exactly what a rescan would produce for idle nodes.
				padded := make([]*vhll.Sketch, n)
				copy(padded, locals)
				locals, nodes = padded, n
			}
			if err := inc.AppendSealedChunk(c.edges, locals, nodes); err != nil {
				return nil, fmt.Errorf("stream: chunk sidecar %d: %w", c.index, err)
			}
			mx.chunks.Inc()
			in.sinceCkpt += len(c.edges)
		}
		chunkEdges += int64(len(c.edges))
		chunkLastAt = int64(c.edges[len(c.edges)-1].At)
	}
	// Tier 2: the WAL. Replay still reads every surviving segment, but
	// only the suffix past the sidecar coverage is new — the overlap (the
	// segment that was active when the last sidecar batch landed) is
	// skipped, and fully covered segments were already deleted.
	wal, recovered, err := OpenWAL(cfg.Dir, WALConfig{SegmentBytes: cfg.SegmentBytes, SyncEvery: cfg.SyncEvery, Journal: cfg.Journal, Epoch: cfg.Epoch}, mx)
	if err != nil {
		return nil, err
	}
	in.wal = wal
	in.epoch.Store(wal.Epoch())
	suffix := recovered
	// The replay skip threshold is normally the last sidecar timestamp.
	// When retirement deleted EVERY sidecar (the retained range is empty
	// on disk), the checkpoint metadata's last_at takes over: at the
	// moment that metadata became durable the sealed prefix was exactly
	// the retired prefix, so WAL edges at or before it are covered.
	skipAt := chunkLastAt
	if len(sidecars) == 0 && floor > 0 {
		skipAt = metaLastAt
	}
	for len(suffix) > 0 && int64(suffix[0].At) <= skipAt {
		suffix = suffix[1:]
	}
	// Rebuild the rest of the sketch state from the replayed suffix. The
	// replayed edges already passed the reorder buffer in their first
	// life, so they feed the chunk builder directly; the fresh reorder
	// buffer is primed past the recovered tail so replayed history cannot
	// be re-emitted.
	for lo := 0; lo < len(suffix); lo += cfg.ChunkEdges {
		hi := min(lo+cfg.ChunkEdges, len(suffix))
		if err := in.seal(suffix[lo:hi]); err != nil {
			wal.Close()
			return nil, fmt.Errorf("stream: replay: %w", err)
		}
	}
	if n := inc.EdgeCount(); n > 0 {
		last := inc.LastAt()
		if inc.RetainedEdges() == 0 {
			// Everything sealed was retired and nothing replayed: the
			// builder has no chunk to read a clock from, but the stream's
			// time did advance to the retired prefix's end.
			last = graph.Time(metaLastAt)
		}
		in.buf.wm = last
		in.buf.maxSeen = last
		in.buf.seen = true
		in.buf.lastOut = last
		in.buf.emitted = true
		in.lastAt.Store(int64(last))
		in.emitted.Store(int64(n))
	}
	// The emit-index clocks (reorder count, emitted counter) resume at the
	// recovered prefix; a reused tracer retires records the crash lost so
	// fresh edges cannot collide with their emit indices.
	in.buf.count = int64(inc.EdgeCount())
	in.tr.Recovered(int64(inc.EdgeCount()))
	in.recoveredChunkEdges = chunkEdges
	in.recoveredWALEdges = int64(len(suffix))
	mx.recoveredChunkEdges.Set(chunkEdges)
	mx.recoveredWALEdges.Set(int64(len(suffix)))
	in.durableChunks = floor + len(sidecars)
	in.retiredFloor = floor
	in.durableAt.Store(chunkLastAt)
	// Re-apply the retention horizon to the rebuilt state before anything
	// folds: retirement is deterministic (same sealed chunks, same
	// horizon, same result), so a recovered builder retires exactly what
	// the pre-crash run had — or would have — retired, and the recovery
	// checkpoint below publishes the same retained range.
	in.retire()
	// Recovered edges bypass the emit path, so the profile table is empty
	// here; rebuild it from the retained chunks before the recovery
	// checkpoint cuts a top-k view, or a restarted process would publish
	// an empty view while claiming full coverage. The retained suffix
	// spans at least the profile window (Retain >= ProfileWindow after
	// clamping), and window estimates are a pure function of the edges
	// inside the window, so the rebuilt view matches the pre-crash one.
	if in.profiles != nil {
		var perr error
		inc.RetainedInteractions(func(batch []graph.Interaction) {
			if perr == nil {
				perr = in.profiles.ObserveBatch(batch)
			}
		})
		if perr != nil {
			wal.Close()
			return nil, fmt.Errorf("stream: recovery profiles: %w", perr)
		}
		in.profiles.Prune()
	}
	// Seed the fold cache from the durable checkpoint, so the first
	// post-recovery fold is already incremental.
	in.seedFoldCache(meta, sidecars)
	in.walCompactedAt = math.MinInt64
	go in.compactor()
	// Publish the recovered state before accepting new edges, so a
	// restarted process serves its pre-crash coverage immediately.
	// Retained, not total: when everything sealed has aged past the
	// horizon there is nothing to fold, and a checkpoint cut from an
	// empty view would regress the metadata's clocks.
	if inc.RetainedEdges() > 0 {
		if err := in.checkpointNow("recovery"); err != nil {
			close(in.folds)
			wal.Close()
			return nil, fmt.Errorf("stream: recovery checkpoint: %w", err)
		}
	}
	// Reclaim WAL segments the (possibly just-extended) sidecar coverage
	// makes redundant — including deletions a pre-crash run never got to.
	if err := in.compactWAL(); err != nil {
		close(in.folds)
		wal.Close()
		return nil, err
	}
	if chunkEdges > 0 || len(suffix) > 0 {
		in.jr.Record(trace.EventRecovery, "startup", time.Since(startNew), map[string]any{
			"chunk_edges": chunkEdges, "wal_edges": int64(len(suffix)),
		})
	}
	in.sealLive = true
	go in.run()
	return in, nil
}

// ckptMeta is the decoded checkpoint.meta.json sidecar. FirstChunk and
// RetiredEdges decode as zero from pre-retirement metadata, which reads
// exactly as "nothing retired".
type ckptMeta struct {
	Edges        int64  `json:"edges"`
	LastAt       int64  `json:"last_at"`
	Chunks       int    `json:"chunks"`
	FirstChunk   int    `json:"first_chunk"`
	RetiredEdges int    `json:"retired_edges"`
	Omega        int64  `json:"omega"`
	Precision    int    `json:"precision"`
	Epoch        uint64 `json:"epoch,omitempty"`
}

// readCheckpointMeta loads the checkpoint metadata sidecar, nil when it
// is missing or unparseable (recovery then proceeds as if no checkpoint
// had ever been published, which is always safe: retirement only
// deletes data after this file is durable).
func readCheckpointMeta(dir string) *ckptMeta {
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if err != nil {
		return nil
	}
	return decodeCkptMeta(raw)
}

// seedFoldCache primes the incremental fold cache from checkpoint.irx
// when the checkpoint's own metadata proves it covers exactly the
// retained sidecar prefix under the current configuration. Any mismatch
// — missing or legacy meta, different window or precision, a retained
// range moved by recovery retirement, edge counts that do not line up —
// silently skips seeding; the first fold is then computed from scratch,
// which is always correct.
func (in *Ingester) seedFoldCache(meta *ckptMeta, sidecars []*chunkData) {
	if meta == nil {
		return
	}
	if meta.Chunks <= meta.FirstChunk || meta.Chunks > meta.FirstChunk+len(sidecars) ||
		meta.Omega != in.cfg.Omega || meta.Precision != in.cfg.Precision {
		return
	}
	// The checkpoint folded chunks [meta.FirstChunk, meta.Chunks); the
	// cache is only valid from the builder's CURRENT base — if recovery
	// retirement just advanced it, the cached fold still covers chunks
	// the builder shed, and sketches cannot subtract them back out.
	if meta.FirstChunk != in.inc.FirstChunk() || meta.RetiredEdges != in.inc.RetiredEdges() {
		return
	}
	var edges int64
	for _, c := range sidecars[:meta.Chunks-meta.FirstChunk] {
		if c.omega != in.cfg.Omega || c.precision != in.cfg.Precision {
			return // those chunks were resealed with fresh boundaries-by-rescan
		}
		edges += int64(len(c.edges))
	}
	if edges != meta.Edges-int64(meta.RetiredEdges) {
		return
	}
	f, err := os.Open(filepath.Join(in.cfg.Dir, CheckpointName))
	if err != nil {
		return
	}
	defer f.Close()
	sum, err := core.ReadApproxSummaries(f)
	if err != nil {
		return
	}
	// SeedFoldCache re-validates omega/precision/ranges; an all-empty
	// checkpoint decodes with the default precision and is rejected
	// there, which only costs the first fold its shortcut.
	_ = in.inc.SeedFoldCache(sum, meta.Chunks)
}

// retire applies the retention horizon to the sketch state: chunks whose
// entire span lies before LastAt−Retain+1 are dropped from the builder.
// Retirement is additionally capped at the durable-sidecar coverage —
// a chunk is only shed from memory once its sidecar is on disk, so the
// WAL segments covering it (deleted against durableAt) are never the
// last copy of edges the checkpoint metadata does not yet account for.
// Runs on the builder's owning goroutine (the run loop, or New during
// recovery). The on-disk sidecars are deleted later, by the compactor,
// after the checkpoint metadata recording the new retained range is
// durable — see retireSidecars.
func (in *Ingester) retire() {
	if in.cfg.Retain == 0 || in.inc.RetainedEdges() == 0 {
		return
	}
	horizon := int64(in.inc.LastAt()) - in.cfg.Retain + 1
	if durable := in.durableAt.Load(); durable < horizon-1 {
		horizon = durable + 1
	}
	chunks, edges := in.inc.Retire(horizon)
	if chunks == 0 {
		return
	}
	in.retiredChunks.Add(int64(chunks))
	in.retiredEdges.Add(int64(edges))
	in.jr.Record(trace.EventChunkRetire, "", 0, map[string]any{
		"chunks": chunks, "edges": edges, "first_chunk": in.inc.FirstChunk(), "horizon": horizon,
	})
}

// retireSidecars deletes the sidecar files of chunks the snapshot has
// retired. Runs on the compactor goroutine, strictly AFTER
// writeCheckpoint made the metadata recording view.FirstChunk() durable:
// a crash before that metadata landed must find the files still present,
// or recovery would see a gap at the old floor and discard the retained
// suffix. A crash between the metadata and the deletions is healed by
// loadChunks, which treats below-floor files as leftovers.
func (in *Ingester) retireSidecars(view core.ChunkView) error {
	lo, hi := in.retiredFloor, view.FirstChunk()
	if hi <= lo {
		return nil
	}
	start := time.Now()
	var bytes int64
	for c := lo; c < hi; c++ {
		name := chunkFileName(in.cfg.Dir, c)
		if fi, err := os.Stat(name); err == nil {
			bytes += fi.Size()
		}
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("stream: retire sidecar %d: %w", c, err)
		}
	}
	if err := syncDir(in.cfg.Dir); err != nil {
		return err
	}
	in.mx.dirSyncs.Inc()
	in.retiredFloor = hi
	in.mx.chunksRetired.Add(int64(hi - lo))
	in.mx.chunkRetiredBytes.Add(bytes)
	in.jr.Record(trace.EventChunkRetire, "sidecars", time.Since(start), map[string]any{
		"chunks": hi - lo, "bytes": bytes, "floor": hi,
	})
	return nil
}

// compactWAL deletes WAL segments whose edges are all covered by durable
// chunk sidecars — capped at the replication floor, so a segment a
// connected replica has not yet acknowledged is never deleted even when
// sidecars cover it (the retention floor is min(durable frontier,
// replica ack)). Runs on the WAL's owning goroutine (the run loop, or
// New before the loop starts); the compactor only publishes the covered
// timestamp.
func (in *Ingester) compactWAL() error {
	at := in.durableAt.Load()
	if fn := in.walFloor.Load(); fn != nil {
		if f := (*fn)(); f < at {
			at = f
		}
	}
	if at <= in.walCompactedAt {
		return nil
	}
	if _, err := in.wal.DeleteCovered(at); err != nil {
		return fmt.Errorf("stream: wal compaction: %w", err)
	}
	in.walCompactedAt = at
	return nil
}

// Push offers one edge to the pipeline, blocking while the intake queue
// is full. It fails once Close has begun or the run loop has died.
func (in *Ingester) Push(e graph.Interaction) error {
	if e.Src < 0 || e.Dst < 0 {
		return fmt.Errorf("stream: negative node id (%d,%d)", e.Src, e.Dst)
	}
	select {
	case <-in.stopped:
		return errClosed
	default:
	}
	select {
	case in.intake <- e:
		return nil
	case <-in.stopped:
		return errClosed
	}
}

// markStopped closes the stopped channel exactly once, unblocking every
// Push. Called by Close and by the run loop on a terminal error.
func (in *Ingester) markStopped() {
	in.stopMu.Lock()
	if !in.closed {
		in.closed = true
		close(in.stopped)
	}
	in.stopMu.Unlock()
}

// run is the single-owner intake loop.
func (in *Ingester) run() {
	defer close(in.done)
	var idle *time.Timer
	var idleC <-chan time.Time
	if in.cfg.IdleFlush > 0 {
		idle = time.NewTimer(in.cfg.IdleFlush)
		defer idle.Stop()
		idleC = idle.C
	}
	// Each interval tick cuts a durable checkpoint and re-arms the tail
	// timer, which publishes once more half an interval later.
	var tickC, tailC <-chan time.Time
	var tail *time.Timer
	if in.cfg.CheckpointEvery > 0 {
		tick := time.NewTicker(in.cfg.CheckpointEvery)
		defer tick.Stop()
		tickC = tick.C
		tail = time.NewTimer(in.cfg.CheckpointEvery / 2)
		defer tail.Stop()
		tailC = tail.C
	}
	var out []graph.Interaction
	fail := func(err error) {
		in.runErr.Store(&err)
		in.markStopped()
		close(in.folds)
		in.wal.Close()
	}
	for {
		out = out[:0]
		select {
		case e := <-in.intake:
			in.take(e, &out)
			// Drain whatever else is queued before touching the WAL, so
			// one record covers the whole burst.
		burst:
			for len(out) < in.cfg.ChunkEdges {
				select {
				case e := <-in.intake:
					in.take(e, &out)
				default:
					break burst
				}
			}
			if idle != nil {
				rearm(idle, in.cfg.IdleFlush)
			}
			if err := in.absorb(out); err != nil {
				fail(err)
				return
			}
			if err := in.compactWAL(); err != nil {
				fail(err)
				return
			}
		case <-idleC:
			in.buf.flush(&out)
			idle.Reset(in.cfg.IdleFlush)
			if err := in.absorb(out); err != nil {
				fail(err)
				return
			}
			if err := in.compactWAL(); err != nil {
				fail(err)
				return
			}
		case <-tickC:
			rearm(tail, in.cfg.CheckpointEvery/2)
			if err := in.maybeCheckpoint(false, "interval"); err != nil {
				fail(err)
				return
			}
			if err := in.compactWAL(); err != nil {
				fail(err)
				return
			}
		case <-tailC:
			if err := in.maybePublish(); err != nil {
				fail(err)
				return
			}
		case done := <-in.force:
			// Absorb everything already queued so the checkpoint covers
			// every edge Push accepted before the call (edges still inside
			// the reorder slack stay buffered: a forced checkpoint must not
			// collapse the watermark and turn future stragglers into drops).
		forced:
			for {
				select {
				case e := <-in.intake:
					in.take(e, &out)
				default:
					break forced
				}
			}
			err := in.absorb(out)
			if err == nil {
				err = in.maybeCheckpoint(true, "forced")
			}
			if err == nil {
				err = in.compactWAL()
			}
			done <- err
			if err != nil {
				fail(err)
				return
			}
		case req := <-in.advance:
			if req.epoch <= in.wal.Epoch() {
				// A caller error, not a pipeline failure: refuse without
				// killing the run loop.
				req.done <- fmt.Errorf("stream: epoch %d does not advance past %d", req.epoch, in.wal.Epoch())
				continue
			}
			// Absorb everything already queued so the sealed tail covers
			// every edge accepted under the old epoch, then rotate into a
			// segment stamped with the new one.
		adv:
			for {
				select {
				case e := <-in.intake:
					in.take(e, &out)
				default:
					break adv
				}
			}
			err := in.absorb(out)
			if err == nil {
				err = in.wal.AdvanceEpoch(req.epoch)
			}
			if err == nil {
				in.epoch.Store(req.epoch)
			}
			req.done <- err
			if err != nil {
				fail(err)
				return
			}
		case <-in.stopped:
			// Final drain: edges already queued are accepted; then flush
			// the buffer, seal, checkpoint, and stop the compactor.
		drain:
			for {
				select {
				case e := <-in.intake:
					in.take(e, &out)
				default:
					break drain
				}
			}
			in.buf.flush(&out)
			err := in.absorb(out)
			if err == nil {
				err = in.sealPending()
			}
			if err == nil && int64(in.inc.EdgeCount()) > in.ckptEdges.Load() {
				err = in.checkpointNow("final")
			}
			if err == nil {
				err = in.compactWAL()
			}
			if err != nil {
				in.runErr.Store(&err)
			}
			close(in.folds)
			if cerr := in.wal.Close(); cerr != nil && in.runErr.Load() == nil {
				in.runErr.Store(&cerr)
			}
			return
		}
	}
}

// rearm restarts t to fire after d, discarding a fire not yet received.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// take routes one arrival through the reorder buffer. Only edges the
// buffer actually accepts count as accepted — a reorder-dropped edge
// never enters the pipeline, so counting it would break the invariant
// that Accepted − Emitted bounds the buffered depth.
func (in *Ingester) take(e graph.Interaction, out *[]graph.Interaction) {
	rec := in.tr.SampleAccept(e)
	if !in.buf.offer(e, rec, out) {
		in.tr.Cancel(rec)
		in.drops.Add(1)
		return
	}
	in.accepted.Add(1)
	in.mx.accepted.Inc()
}

// absorb logs and stages a drained batch, sealing chunks as they fill
// and applying the edge-count checkpoint trigger.
func (in *Ingester) absorb(out []graph.Interaction) error {
	in.bufDepth.Store(int64(in.buf.depth()))
	if in.buf.seen {
		in.wmLag.Store(int64(in.buf.maxSeen - in.buf.wm))
	}
	if len(out) == 0 {
		return nil
	}
	// base is the emit index of out[0]: the reorder buffer assigned
	// indices base..base+len(out)-1 as it drained this batch.
	base := in.emitted.Load()
	// Cap record size at the chunk size: a crash then loses at most one
	// bounded record, and replay allocations stay proportional to it.
	for lo := 0; lo < len(out); lo += in.cfg.ChunkEdges {
		hi := min(lo+in.cfg.ChunkEdges, len(out))
		syncsBefore := in.wal.SyncCount()
		if err := in.wal.Append(out[lo:hi]); err != nil {
			return fmt.Errorf("stream: wal append: %w", err)
		}
		in.tr.StampThrough(trace.StageWALAppend, base+int64(hi))
		if in.wal.SyncCount() != syncsBefore {
			in.tr.StampThrough(trace.StageWALFsync, base+int64(hi))
		}
	}
	in.emitted.Add(int64(len(out)))
	in.mx.emitted.Add(int64(len(out)))
	in.lastAt.Store(int64(out[len(out)-1].At))
	if sink := in.emitSink.Load(); sink != nil {
		// The batch is logged (appended, possibly not yet fsynced) before
		// the sink sees it, so a replica can never apply an edge the
		// primary's WAL has no record of. The sink runs on the run loop
		// and must not retain the slice.
		(*sink)(base, out)
	}
	if in.profiles != nil {
		if err := in.profiles.ObserveBatch(out); err != nil {
			return fmt.Errorf("stream: profiles: %w", err)
		}
	}
	in.pending = append(in.pending, out...)
	for len(in.pending) >= in.cfg.ChunkEdges {
		if err := in.seal(in.pending[:in.cfg.ChunkEdges]); err != nil {
			return err
		}
		// seal copied the chunk, so resliding past it is safe even though
		// later appends reuse the backing array.
		in.pending = in.pending[in.cfg.ChunkEdges:]
	}
	if in.cfg.CheckpointEdges > 0 && in.sinceCkpt+len(in.pending) >= in.cfg.CheckpointEdges {
		return in.maybeCheckpoint(false, "edges")
	}
	return nil
}

// seal appends one chunk to the incremental state, growing the node
// range to fit. The slice is copied: AppendChunk retains its argument
// and callers reuse their buffers.
func (in *Ingester) seal(edges []graph.Interaction) error {
	if len(edges) == 0 {
		return nil
	}
	n := in.inc.NumNodes()
	for _, e := range edges {
		if m := int(max(e.Src, e.Dst)) + 1; m > n {
			n = m
		}
	}
	start := time.Now()
	cp := append([]graph.Interaction(nil), edges...)
	if err := in.inc.AppendChunk(cp, n); err != nil {
		return fmt.Errorf("stream: seal chunk: %w", err)
	}
	in.mx.chunks.Inc()
	in.sinceCkpt += len(edges)
	if in.sealLive {
		// EdgeCount after the append is exactly the emit index one past
		// the sealed chunk's last edge.
		in.tr.StampThrough(trace.StageChunkSeal, int64(in.inc.EdgeCount()))
		if in.profiles != nil {
			// Chunk sealing is the natural batch boundary for the window
			// cleanup: force the profiles' vhll.Prune so per-node counter
			// state sheds entries no admissible sliding-window query can
			// still observe, keeping the live top-k view's memory
			// proportional to the window rather than the stream. The
			// chunk's block-local sketches are NOT pruned — fold output
			// must stay byte-identical to the offline scan, and bounded
			// residency for them comes from chunk retirement instead.
			in.profiles.Prune()
		}
		in.jr.Record(trace.EventChunkSeal, "", time.Since(start), map[string]any{
			"edges": len(edges), "chunks": in.inc.NumChunks(),
		})
	}
	return nil
}

// sealPending seals whatever partial chunk is staged.
func (in *Ingester) sealPending() error {
	if len(in.pending) == 0 {
		return nil
	}
	err := in.seal(in.pending)
	in.pending = nil
	return err
}

// maybeCheckpoint seals the pending batch, makes the covered edges
// durable, and hands the snapshot to the compactor. When the compactor
// is still running the previous durable checkpoint, interval/edge
// triggers skip (counted) — before sealing anything: a skipped trigger
// must not seal the pending partial chunk, or every tick during a slow
// fold would seal another tiny chunk and permanently fragment the chunk
// sequence. A publish-only job in flight never causes a skip: the job
// queues behind it. Forced requests (wait=true) block until the
// checkpoint lands.
func (in *Ingester) maybeCheckpoint(wait bool, cause string) error {
	if !wait && in.foldsPending.Load() > 0 {
		in.mx.checkpointSkips.Inc()
		return nil
	}
	if err := in.sealPending(); err != nil {
		return err
	}
	if int64(in.inc.EdgeCount()) == in.ckptEdges.Load() {
		return nil // nothing new to cover
	}
	// Shed chunks past the retention horizon before cutting the snapshot,
	// so the fold below only covers — and the checkpoint only claims —
	// the retained suffix.
	in.retire()
	// Sync here, on the WAL's owning goroutine, so the checkpoint never
	// claims edges the log could still lose.
	if err := in.wal.Sync(); err != nil {
		return fmt.Errorf("stream: checkpoint wal sync: %w", err)
	}
	// Everything emitted so far is appended and now fsynced.
	in.tr.StampThrough(trace.StageWALFsync, in.emitted.Load())
	job := foldJob{view: in.inc.View(), cause: cause, done: make(chan error, 1)}
	if in.profiles != nil {
		// The profile table is run-loop state: the top-k view is computed
		// here and published by the compactor after the checkpoint lands.
		job.hot = in.profiles.TopEntries(in.cfg.TopK)
	}
	in.foldsPending.Add(1)
	// Without wait, no durable checkpoint is in flight, so the one-slot
	// buffer holds at most a publish-only job the compactor is about to
	// take: the send does not wait for a fold.
	in.folds <- job
	in.sinceCkpt = 0
	if wait {
		return <-job.done
	}
	return nil
}

// maybePublish hands the compactor a publish-only job: the sealed view
// plus a copy of the unsealed pending tail, folded and published
// without sealing, persisting or writing anything, so the chunk
// sequence and the files on disk are exactly those of the durable
// checkpoints alone. It fsyncs the WAL first — a publish never covers
// an edge the log could still lose — and skips while any job is in
// flight or when everything emitted is already published.
func (in *Ingester) maybePublish() error {
	if in.foldsPending.Load() > 0 || in.tailsPending.Load() > 0 || in.emitted.Load() == in.pubEdges.Load() {
		return nil
	}
	if err := in.wal.Sync(); err != nil {
		return fmt.Errorf("stream: publish wal sync: %w", err)
	}
	in.tr.StampThrough(trace.StageWALFsync, in.emitted.Load())
	job := foldJob{
		view:        in.inc.View(),
		tail:        append([]graph.Interaction(nil), in.pending...),
		publishOnly: true,
		cause:       "tail",
	}
	if in.profiles != nil {
		job.hot = in.profiles.TopEntries(in.cfg.TopK)
	}
	// Nothing is in flight, so the buffer is empty and the send is
	// immediate.
	in.tailsPending.Add(1)
	in.folds <- job
	return nil
}

// checkpointNow is maybeCheckpoint(wait=true) for paths that must not
// skip: recovery publish and the final Close checkpoint.
func (in *Ingester) checkpointNow(cause string) error { return in.maybeCheckpoint(true, cause) }

// compactor runs jobs one at a time, in order, so publishes never
// regress: each job covers at least what the one before it covered.
func (in *Ingester) compactor() {
	for job := range in.folds {
		var err error
		if job.publishOnly {
			err = in.publishTail(job)
			in.tailsPending.Add(-1)
		} else {
			err = in.checkpoint(job)
			in.foldsPending.Add(-1)
		}
		if job.done != nil {
			job.done <- err
		}
	}
}

// checkpoint folds the snapshot (incrementally, against the cached
// previous fold), persists its new chunks as durable sidecars, writes
// the IRX1 snapshot and its metadata sidecar atomically, deletes the
// sidecars of chunks the snapshot retired, and publishes. Runs on the
// compactor goroutine; it touches no run-loop state beyond the
// immutable view. Sidecars go before the metadata: once they are
// durable the checkpoint may claim chunk coverage, and the run loop may
// delete the WAL segments they cover. Retired-sidecar deletion goes
// after it, once the metadata recording the new retained range is
// durable — before that, the files are still recovery's only proof the
// floor moved. The metadata is written before Publish runs, so a
// publish hook that reads it sees the checkpoint being published.
func (in *Ingester) checkpoint(job foldJob) error {
	view, cause := job.view, job.cause
	start := time.Now()
	covered := int64(view.EdgeCount())
	in.tr.StampThrough(trace.StageFoldStart, covered)
	sum := view.Fold()
	foldDur := time.Since(start)
	in.tr.StampThrough(trace.StageFold, covered)
	if err := in.persistChunks(view); err != nil {
		return err
	}
	if err := in.writeCheckpoint(sum, view, foldDur); err != nil {
		return err
	}
	in.tr.StampThrough(trace.StageCheckpointWrite, covered)
	if err := in.retireSidecars(view); err != nil {
		return err
	}
	in.publish(sum, job, covered, int64(view.LastAt()))
	sketchBytes := int64(view.MemoryBytes())
	in.sketchBytes.Store(sketchBytes)
	in.mx.sketchBytes.Set(sketchBytes)
	in.checkpoints.Add(1)
	in.ckptEdges.Store(covered)
	in.lastCkpt.Store(time.Now().UnixNano())
	in.mx.checkpoints.Inc()
	in.mx.checkpointDur.Observe(time.Since(start).Seconds())
	in.mx.checkpointEdges.Set(covered)
	in.jr.Record(trace.EventCheckpoint, cause, time.Since(start), map[string]any{
		"edges": covered, "chunks": view.NumChunks(), "first_chunk": view.FirstChunk(),
		"retired_edges": int64(view.RetiredEdges()), "fold_ms": float64(foldDur) / 1e6,
	})
	return nil
}

// publishTail folds a publish-only job — the sealed view plus its copy
// of the unsealed tail — and publishes the result. It writes nothing:
// the run loop fsynced the WAL through the tail before handing the job
// over, and sidecars, checkpoint.irx, the metadata and retirement stay
// on the durable path.
func (in *Ingester) publishTail(job foldJob) error {
	start := time.Now()
	covered := int64(job.view.EdgeCount() + len(job.tail))
	in.tr.StampThrough(trace.StageFoldStart, covered)
	sum, err := job.view.FoldTail(job.tail)
	if err != nil {
		return fmt.Errorf("stream: tail fold: %w", err)
	}
	foldDur := time.Since(start)
	in.tr.StampThrough(trace.StageFold, covered)
	lastAt := int64(job.view.LastAt())
	if n := len(job.tail); n > 0 {
		lastAt = int64(job.tail[n-1].At)
	}
	in.publish(sum, job, covered, lastAt)
	in.jr.Record(trace.EventPublish, job.cause, time.Since(start), map[string]any{
		"edges": covered, "tail_edges": len(job.tail),
		"retired_edges": int64(job.view.RetiredEdges()), "fold_ms": float64(foldDur) / 1e6,
	})
	return nil
}

// publish hands sum, covering the first covered emitted edges, to the
// Publish callback, and only after it returns moves what readers see:
// the top-k view, the published coverage and the publish clock.
func (in *Ingester) publish(sum *core.ApproxSummaries, job foldJob, covered, lastAt int64) {
	// Covered records are marked awaiting visibility before the handoff:
	// the serving layer's generation swap stamps serve_visible, or
	// FinishPublish completes them when nothing downstream will.
	in.tr.BeginPublish(covered)
	if in.cfg.Publish != nil {
		in.cfg.Publish(sum)
	}
	in.tr.FinishPublish()
	if in.profiles != nil {
		in.hot.Store(&HotView{
			Entries:      job.hot,
			CoveredEdges: covered,
			LastAt:       lastAt,
			RefreshedAt:  time.Now(),
		})
		in.mx.topkRefreshes.Inc()
		in.mx.topkSize.Set(int64(len(job.hot)))
	}
	in.pubEdges.Store(covered)
	in.publishes.Add(1)
	in.lastPub.Store(time.Now().UnixNano())
	in.mx.publishes.Inc()
}

// persistChunks writes a sidecar for every sealed chunk the snapshot
// holds beyond the durable prefix, then fsyncs the directory once and
// advances the covered timestamp the run loop compacts the WAL against.
func (in *Ingester) persistChunks(view core.ChunkView) error {
	n := view.NumChunks()
	if n <= in.durableChunks {
		return nil
	}
	start := time.Now()
	wrote := n - in.durableChunks
	for c := in.durableChunks; c < n; c++ {
		edges, locals := view.Chunk(c)
		if err := writeChunkFile(in.cfg.Dir, c, in.cfg.Omega, in.cfg.Precision, edges, locals, in.mx); err != nil {
			return fmt.Errorf("stream: chunk sidecar %d: %w", c, err)
		}
	}
	if err := syncDir(in.cfg.Dir); err != nil {
		return err
	}
	in.mx.dirSyncs.Inc()
	in.durableChunks = n
	in.durableAt.Store(int64(view.LastAt()))
	in.jr.Record(trace.EventChunkPersist, "", time.Since(start), map[string]any{
		"chunks": wrote, "durable": n,
	})
	return nil
}

// writeCheckpoint persists the folded summaries via tmp + rename so a
// crash mid-write never leaves a torn checkpoint file, then fsyncs the
// directory — without that, a crash after the rename could lose the
// dirent and resurrect the previous checkpoint (or none at all).
func (in *Ingester) writeCheckpoint(sum *core.ApproxSummaries, view core.ChunkView, foldDur time.Duration) error {
	start := time.Now()
	path := filepath.Join(in.cfg.Dir, CheckpointName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := sum.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	meta := fmt.Sprintf(`{"edges":%d,"last_at":%d,"nodes":%d,"omega":%d,"precision":%d,"chunks":%d,"first_chunk":%d,"retired_edges":%d,"epoch":%d,"fold_seconds":%.6f,"write_seconds":%.6f}`+"\n",
		view.EdgeCount(), view.LastAt(), view.NumNodes(), in.cfg.Omega, in.cfg.Precision,
		view.NumChunks(), view.FirstChunk(), view.RetiredEdges(), in.epoch.Load(), foldDur.Seconds(), time.Since(start).Seconds())
	metaPath := filepath.Join(in.cfg.Dir, CheckpointMetaName)
	if err := os.WriteFile(metaPath+".tmp", []byte(meta), 0o644); err != nil {
		return err
	}
	if err := os.Rename(metaPath+".tmp", metaPath); err != nil {
		return err
	}
	if err := syncDir(in.cfg.Dir); err != nil {
		return err
	}
	in.mx.dirSyncs.Inc()
	return nil
}

// Checkpoint forces a synchronous durable checkpoint: it absorbs every
// edge Push accepted before the call (edges still held by the reorder
// slack stay buffered), seals the pending batch, folds, writes, and
// publishes before returning. It writes even when a publish between
// checkpoints already covered everything, since durable coverage is
// tracked apart from published coverage. ctx bounds the wait.
func (in *Ingester) Checkpoint(ctx context.Context) error {
	done := make(chan error, 1)
	select {
	case in.force <- done:
	case <-in.done:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Omega returns the influence window the ingester folds under.
func (in *Ingester) Omega() int64 { return in.cfg.Omega }

// Precision returns the vHLL sketch precision (after defaulting).
func (in *Ingester) Precision() int { return in.cfg.Precision }

// Dir returns the ingester's state directory.
func (in *Ingester) Dir() string { return in.cfg.Dir }

// Epoch returns the replication fencing epoch the WAL is writing under:
// 0 until a promotion ever touched this directory, and thereafter the
// epoch asserted at open or set by the latest AdvanceEpoch.
func (in *Ingester) Epoch() uint64 { return in.epoch.Load() }

// AdvanceEpoch absorbs every edge accepted so far, seals the active WAL
// segment, and starts a new one stamped with the given (strictly
// greater) epoch. This is the fencing half of replica promotion: once it
// returns, a writer still asserting the old epoch fails its next open of
// this directory with *FutureEpochError, and the ingester keeps
// accepting edges — now as the epoch's owner. ctx bounds the wait.
func (in *Ingester) AdvanceEpoch(ctx context.Context, epoch uint64) error {
	req := advanceReq{epoch: epoch, done: make(chan error, 1)}
	select {
	case in.advance <- req:
	case <-in.done:
		return errClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-req.done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SetEmitSink installs (or, with nil, removes) the replication tap: fn
// observes every emitted batch, on the run loop, with base the emit
// index of batch[0], immediately after the batch was appended to the
// WAL. fn must be fast and must not retain the slice — encode and hand
// off. Batches emitted before the sink was installed are not replayed;
// internal/repl bridges the gap by reading the state directory.
func (in *Ingester) SetEmitSink(fn func(base int64, batch []graph.Interaction)) {
	if fn == nil {
		in.emitSink.Store(nil)
		return
	}
	in.emitSink.Store(&fn)
}

// SetWALFloor installs (or, with nil, removes) the replication retention
// floor: WAL compaction deletes a sealed segment only when every edge in
// it is at or below BOTH the durable-sidecar frontier and fn(). fn is
// called on the run loop and must be cheap; internal/repl wires it to
// the minimum acknowledged timestamp across connected replicas, so a
// lagging replica can always delta-sync from the primary's log.
func (in *Ingester) SetWALFloor(fn func() int64) {
	if fn == nil {
		in.walFloor.Store(nil)
		return
	}
	in.walFloor.Store(&fn)
}

// Close stops intake, drains queued edges, flushes the reorder buffer,
// seals, runs a final checkpoint when anything new was emitted, and
// closes the WAL. ctx bounds the wait for the run loop to finish.
func (in *Ingester) Close(ctx context.Context) error {
	in.markStopped()
	select {
	case <-in.done:
		return in.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the run loop's terminal error, nil while running or after
// a clean shutdown.
func (in *Ingester) Err() error {
	if p := in.runErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a snapshot of the progress counters; safe from any
// goroutine.
func (in *Ingester) Stats() Stats {
	return Stats{
		Accepted:            in.accepted.Load(),
		Emitted:             in.emitted.Load(),
		ReorderDrops:        in.drops.Load(),
		Checkpoints:         in.checkpoints.Load(),
		Publishes:           in.publishes.Load(),
		LastAt:              in.lastAt.Load(),
		CoveredEdges:        in.pubEdges.Load(),
		DurableEdges:        in.ckptEdges.Load(),
		RecoveredChunkEdges: in.recoveredChunkEdges,
		RecoveredWALEdges:   in.recoveredWALEdges,
		RetiredChunks:       in.retiredChunks.Load(),
		RetiredEdges:        in.retiredEdges.Load(),
	}
}

// Health returns the live pipeline state for the /debug/pipeline
// endpoint: progress counters, published and durable coverage,
// watermark lag, reorder and intake depth, publish and checkpoint age,
// and the on-disk footprint of the WAL, the chunk sidecars, and the
// checkpoint. Safe from any goroutine; the disk numbers come from a
// directory listing, not run-loop state.
func (in *Ingester) Health() map[string]any {
	st := in.Stats()
	h := map[string]any{
		"accepted":              st.Accepted,
		"emitted":               st.Emitted,
		"reorder_drops":         st.ReorderDrops,
		"checkpoints":           st.Checkpoints,
		"covered_edges":         st.CoveredEdges,
		"durable_edges":         st.DurableEdges,
		"last_at":               st.LastAt,
		"watermark_lag":         in.wmLag.Load(),
		"reorder_depth":         in.bufDepth.Load(),
		"intake_queued":         len(in.intake),
		"recovered_chunk_edges": st.RecoveredChunkEdges,
		"recovered_wal_edges":   st.RecoveredWALEdges,
		"retired_chunks":        st.RetiredChunks,
		"retired_edges":         st.RetiredEdges,
		"sketch_bytes":          in.sketchBytes.Load(),
	}
	if at := in.lastCkpt.Load(); at > 0 {
		h["checkpoint_age_seconds"] = time.Since(time.Unix(0, at)).Seconds()
	}
	if at := in.lastPub.Load(); at > 0 {
		h["publish_age_seconds"] = time.Since(time.Unix(0, at)).Seconds()
	}
	var walBytes, chunkBytes, ckptBytes int64
	var walSegs, chunkFiles int
	for _, g := range []struct {
		pat   string
		bytes *int64
		files *int
	}{
		{"wal-*.seg", &walBytes, &walSegs},
		{"chunk-*.blk", &chunkBytes, &chunkFiles},
		{CheckpointName, &ckptBytes, nil},
	} {
		names, _ := filepath.Glob(filepath.Join(in.cfg.Dir, g.pat))
		for _, name := range names {
			if fi, err := os.Stat(name); err == nil {
				*g.bytes += fi.Size()
				if g.files != nil {
					*g.files++
				}
			}
		}
	}
	h["disk"] = map[string]any{
		"wal_bytes": walBytes, "wal_segments": walSegs,
		"chunk_bytes": chunkBytes, "chunk_files": chunkFiles,
		"checkpoint_bytes": ckptBytes,
		"total_bytes":      walBytes + chunkBytes + ckptBytes,
	}
	return h
}

// Hot returns the k nodes with the largest sliding-window out-
// neighborhood profiles, nil unless Config.ProfileWindow enabled them.
// While the ingester runs it answers from the top-k view the compactor
// published with the latest publish (nil before the first one, and
// truncated to Config.TopK entries); after Close it reads the final
// profile table directly — the run loop has exited, so the exact
// end-of-run state is safe to walk.
func (in *Ingester) Hot(k int) []graph.NodeID {
	select {
	case <-in.done:
		if in.profiles == nil {
			return nil
		}
		return in.profiles.Top(k)
	default:
	}
	hv := in.hot.Load()
	if hv == nil {
		return nil
	}
	if k > len(hv.Entries) {
		k = len(hv.Entries)
	}
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = hv.Entries[i].Node
	}
	return out
}

// TopK returns the latest published top-k influencer view with scores
// and provenance (which publish, how fresh), nil before the first
// publish or when Config.ProfileWindow is zero. The snapshot is
// immutable; callers may retain it.
func (in *Ingester) TopK() *HotView { return in.hot.Load() }
