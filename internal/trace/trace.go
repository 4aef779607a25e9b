// Package trace is the pipeline observability layer: sampled end-to-end
// edge tracing through the live ingestion pipeline, a freshness SLO
// tracker, a structured lifecycle event journal, and the /debug/pipeline
// health surface that renders them.
//
// Tracing works by co-travel, not by payload: edges are plain value
// structs with no room for a context, so every Nth accepted edge gets a
// *Record allocated beside it that rides the reorder buffer's heap entry
// and is thereafter addressed by its emit index — the edge's position in
// the emitted sequence, which is exactly the coordinate the WAL, the
// chunk builder, and checkpoints already speak. Each pipeline stage
// stamps the records it covers with a monotonic offset from the tracer's
// start; stamps are written at most once (a stage only fills an empty
// slot), so batch-level stamping is idempotent by construction and a
// record reaches the terminal serve-visible stage exactly once, even
// across a crash/recovery restart (see Recovered).
//
// The stage taxonomy, in pipeline order (DESIGN.md is normative):
//
//	accept           edge admitted from a source into the reorder buffer
//	reorder_emit     released past the watermark into the emitted sequence
//	wal_append       written into the current WAL segment
//	wal_fsync        covered by a WAL fsync (absent when fsync is disabled)
//	chunk_seal       sealed into an immutable sketch chunk (absent when
//	                 a tail publish made the edge visible first)
//	fold_start       the compactor started a job covering the edge
//	fold             covered by a compactor fold
//	checkpoint_write checkpoint.irx covering the edge is durable (absent
//	                 when a tail publish made the edge visible first)
//	publish          handed to the Publish callback
//	serve_visible    a serving generation including the edge is queryable
//
// Stage values are not in pipeline order — fold_start was appended after
// serve_visible so the earlier stages kept their numbers — so everything
// that walks a record in order walks PipelineOrder.
//
// Completed records feed per-stage latency histograms (each stage's
// histogram observes the gap from the previous stamped stage), an
// end-to-end freshness histogram, the SLO tracker, and a bounded ring of
// full records for /debug/pipeline and postmortems.
//
// Like the rest of the obs layer, everything is a nil-safe no-op: a nil
// *Tracer costs one predictable branch per call site, so pipelines that
// never install tracing pay nothing.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
)

// Stage identifies one pipeline stage a trace record can be stamped at.
type Stage uint8

// Stages. NumStages bounds per-record stamp arrays. New stages are
// appended, never inserted: stage values index stamp arrays and
// histograms, and consumers outside this package address them by
// number. PipelineOrder gives the order an edge crosses them.
const (
	StageAccept Stage = iota
	StageReorderEmit
	StageWALAppend
	StageWALFsync
	StageChunkSeal
	StageFold
	StageCheckpointWrite
	StagePublish
	StageServeVisible
	StageFoldStart
	NumStages
)

var stageNames = [NumStages]string{
	"accept", "reorder_emit", "wal_append", "wal_fsync", "chunk_seal",
	"fold", "checkpoint_write", "publish", "serve_visible", "fold_start",
}

// PipelineOrder lists every stage in the order an edge crosses them,
// accept first. Per-stage gaps, health payloads and anything else that
// walks a record's stamps in time order iterate this table, not the
// Stage values. Read-only.
var PipelineOrder = [NumStages]Stage{
	StageAccept, StageReorderEmit, StageWALAppend, StageWALFsync, StageChunkSeal,
	StageFoldStart, StageFold, StageCheckpointWrite, StagePublish, StageServeVisible,
}

// String returns the snake_case stage name used in metric labels and
// health payloads.
func (s Stage) String() string {
	if s >= NumStages {
		return "invalid"
	}
	return stageNames[s]
}

// Outcome classifies how a record left the inflight set.
type Outcome string

const (
	// OutcomeCompleted: the edge reached serve-visible.
	OutcomeCompleted Outcome = "completed"
	// OutcomeCancelled: the edge was dropped by the reorder buffer (too
	// late for the slack) and never entered the pipeline.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeLost: the edge was lost in a crash (never durable before the
	// restart) and its record was retired during recovery.
	OutcomeLost Outcome = "lost"
	// OutcomeEvicted: the inflight table hit its bound and retired the
	// record early (a stalled pipeline holding thousands of open traces).
	OutcomeEvicted Outcome = "evicted"
)

// Record is one traced edge's stamp sheet. Stamps are nanosecond offsets
// from the tracer's start; zero means "not stamped". Records are owned by
// the tracer: stages hand them back through Tracer methods and must not
// retain them after completion.
type Record struct {
	Src, Dst graph.NodeID
	At       graph.Time
	// EmitIndex is the edge's position in the emitted sequence, -1 until
	// the reorder buffer releases it. It is the key every batch-level
	// stage uses to find the records it covers.
	EmitIndex int64
	Stamps    [NumStages]int64
	Outcome   Outcome

	pendingVisible bool
}

// Trace metric names.
const (
	MetricSampled    = "trace_records_sampled_total"
	MetricCompleted  = "trace_records_completed_total"
	MetricCancelled  = "trace_records_cancelled_total"
	MetricLost       = "trace_records_lost_total"
	MetricEvicted    = "trace_records_evicted_total"
	MetricInflight   = "trace_records_inflight"
	MetricStage      = "trace_stage_seconds"
	MetricEndToEnd   = "trace_e2e_seconds"
	MetricSLOOK      = "trace_slo_observed_total"
	MetricSLOBreach  = "trace_slo_breaches_total"
	MetricSLOObj     = "trace_slo_objective_ms"
	MetricSLOTarget  = "trace_slo_target_ppm"
	MetricSLOAttain  = "trace_slo_attainment_ppm"
	MetricSLOBudget  = "trace_slo_budget_remaining_ppm"
	MetricSLOBurn    = "trace_slo_burn_rate_ppm"
	MetricJournalEvt = "trace_journal_events_total"
)

// traceBuckets extend obs.DefBuckets upward: freshness spans from
// sub-millisecond stage hops to multi-minute checkpoint intervals.
var traceBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 180, 600,
}

// Config parameterizes a Tracer; the zero value samples every 1024th
// accepted edge with no SLO tracking and no metrics.
type Config struct {
	// SampleEvery traces every Nth accepted edge; 0 selects 1024, 1
	// traces everything (tests and short benches).
	SampleEvery int
	// RingSize bounds the completed-record ring; 0 selects 256.
	RingSize int
	// MaxInflight bounds open (emitted, not yet completed) records; 0
	// selects 4096. Overflow retires the oldest record as evicted.
	MaxInflight int
	// SLO, when Objective > 0, enables the freshness SLO tracker over the
	// end-to-end (accept → terminal stage) latency.
	SLO SLOConfig
	// Registry receives the trace_* metrics; nil disables them.
	Registry *obs.Registry
}

// Tracer owns the sampled records of one live pipeline. One Tracer serves
// one pipeline at a time, but it outlives ingester restarts: hand the
// same Tracer to the next ingester over the same directory and Recovered
// reconciles the records that were open across the crash.
type Tracer struct {
	every    uint64
	t0       time.Time
	arrivals atomic.Uint64

	// maxEmit is one past the highest registered emit index; stampedUpto
	// is the per-stage bound below which every inflight record already
	// carries the stamp. Together they give StampThrough a lock-free skip
	// for the common batch that emitted no new traced record.
	maxEmit     atomic.Int64
	stampedUpto [NumStages]atomic.Int64

	mu        sync.Mutex
	unemitted []*Record // accepted, still inside the reorder buffer
	inflight  []*Record // emitted, ascending EmitIndex
	ring      []*Record // retired records, ringNext is the next slot
	ringNext  int
	ringLen   int
	maxOpen   int

	slo *SLO

	sampled, completed, cancelled, lost, evicted *obs.Counter
	stageHist                                    [NumStages]*obs.Histogram
	e2e                                          *obs.Histogram
}

// New returns a Tracer. Nil is a valid *Tracer everywhere; construct one
// only when tracing is actually wanted.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1024
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4096
	}
	t := &Tracer{
		every: uint64(cfg.SampleEvery),
		// Start the clock strictly before any stamp so a stamp of 0 can
		// only ever mean "not stamped".
		t0:      time.Now().Add(-time.Microsecond),
		ring:    make([]*Record, cfg.RingSize),
		maxOpen: cfg.MaxInflight,
	}
	reg := cfg.Registry
	if reg == nil {
		// A private throwaway registry: the instruments stay functional
		// (CountsNow, Snapshot, the health endpoint), nothing is exposed.
		reg = obs.NewRegistry()
	}
	t.sampled = reg.Counter(MetricSampled, "Accepted edges sampled into trace records.")
	t.completed = reg.Counter(MetricCompleted, "Trace records that reached the terminal serve-visible stage.")
	t.cancelled = reg.Counter(MetricCancelled, "Trace records retired because the reorder buffer dropped the edge.")
	t.lost = reg.Counter(MetricLost, "Trace records retired during recovery because the crash lost the edge.")
	t.evicted = reg.Counter(MetricEvicted, "Trace records retired early by the inflight bound.")
	reg.GaugeFunc(MetricInflight, "Open trace records (accepted or emitted, not yet retired).", func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return int64(len(t.unemitted) + len(t.inflight))
	})
	for s := StageReorderEmit; s < NumStages; s++ {
		t.stageHist[s] = reg.Histogram(MetricStage+`{stage="`+s.String()+`"}`,
			"Latency from the previous stamped stage to this stage, seconds.", traceBuckets)
	}
	t.e2e = reg.Histogram(MetricEndToEnd, "End-to-end accept → serve-visible latency, seconds.", traceBuckets)
	if cfg.SLO.Objective > 0 {
		t.slo = newSLO(cfg.SLO, reg)
	}
	return t
}

// SampleEveryN returns the sampling cadence (0 on a nil tracer).
func (t *Tracer) SampleEveryN() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// SLOTracker returns the tracer's SLO tracker, nil when not configured.
func (t *Tracer) SLOTracker() *SLO {
	if t == nil {
		return nil
	}
	return t.slo
}

func (t *Tracer) since() int64 { return int64(time.Since(t.t0)) }

// SampleAccept decides whether this arrival is traced. It returns nil for
// unsampled edges (and always on a nil tracer) — the nil check is the
// entire disabled-path cost, pinned ≤ 5 ns by BenchmarkDisabledSample.
// The returned record is already stamped at accept; the caller threads it
// through the reorder buffer and back via Emitted or Cancel.
func (t *Tracer) SampleAccept(e graph.Interaction) *Record {
	if t == nil {
		return nil
	}
	if t.arrivals.Add(1)%t.every != 0 {
		return nil
	}
	rec := &Record{Src: e.Src, Dst: e.Dst, At: e.At, EmitIndex: -1}
	rec.Stamps[StageAccept] = t.since()
	t.mu.Lock()
	t.unemitted = append(t.unemitted, rec)
	t.mu.Unlock()
	t.sampled.Inc()
	return rec
}

// Cancel retires a sampled record whose edge the reorder buffer dropped.
// Nil-safe on both receiver and record.
func (t *Tracer) Cancel(rec *Record) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.dropUnemittedLocked(rec)
	t.retireLocked(rec, OutcomeCancelled)
	t.mu.Unlock()
}

// dropUnemittedLocked removes rec from the unemitted set by identity.
func (t *Tracer) dropUnemittedLocked(rec *Record) {
	for i, r := range t.unemitted {
		if r == rec {
			t.unemitted = append(t.unemitted[:i], t.unemitted[i+1:]...)
			return
		}
	}
}

// Emitted stamps reorder_emit and registers the record under its emit
// index. Emit indices must be assigned in ascending order — they are the
// edge's position in the emitted sequence, which only grows.
func (t *Tracer) Emitted(rec *Record, emitIndex int64) {
	if t == nil || rec == nil {
		return
	}
	t.mu.Lock()
	t.dropUnemittedLocked(rec)
	rec.EmitIndex = emitIndex
	rec.Stamps[StageReorderEmit] = t.since()
	if len(t.inflight) >= t.maxOpen {
		old := t.inflight[0]
		t.inflight = t.inflight[1:]
		t.retireLocked(old, OutcomeEvicted)
	}
	t.inflight = append(t.inflight, rec)
	t.maxEmit.Store(emitIndex + 1)
	t.mu.Unlock()
}

// StampThrough stamps stage on every inflight record with EmitIndex <
// uptoEmit that does not carry the stamp yet. Stages call it right after
// the operation that covered those edges (a WAL append, an fsync, a
// chunk seal, a fold, a checkpoint write), so re-stamping is impossible:
// a filled slot is never overwritten.
func (t *Tracer) StampThrough(stage Stage, uptoEmit int64) {
	if t == nil || stage >= NumStages {
		return
	}
	// Records only exist below maxEmit, so clamp the bound there; if
	// everything below it is already stamped, this batch emitted no new
	// traced record and the call costs two atomic loads — the price the
	// WAL path pays per batch at production sampling rates.
	if hi := t.maxEmit.Load(); uptoEmit > hi {
		uptoEmit = hi
	}
	if uptoEmit <= t.stampedUpto[stage].Load() {
		return
	}
	now := t.since()
	t.mu.Lock()
	// Backward from the tail: every StampThrough call fills all covered
	// records, so per stage the stamped records always form a prefix of
	// the inflight list and the first stamped record ends the scan. The
	// per-batch call on the WAL hot path therefore costs O(records newly
	// covered), not O(inflight) — checkpoints hold records open for whole
	// checkpoint intervals, and a front-to-back rescan of those per WAL
	// batch is what the ≤5% tracing-overhead gate would catch.
	for i := len(t.inflight) - 1; i >= 0; i-- {
		rec := t.inflight[i]
		if rec.EmitIndex >= uptoEmit {
			continue // not covered yet; older records may be
		}
		if rec.Stamps[stage] != 0 {
			break
		}
		rec.Stamps[stage] = now
	}
	t.stampedUpto[stage].Store(uptoEmit)
	t.mu.Unlock()
}

// BeginPublish is called by the pipeline immediately before it hands a
// checkpoint covering the first uptoEmit emitted edges to the Publish
// callback: it stamps publish and marks the covered records as awaiting
// visibility. The serving layer's StampVisible (or, failing that, the
// pipeline's FinishPublish) then completes them — each exactly once,
// because completion removes the record from the inflight set.
func (t *Tracer) BeginPublish(uptoEmit int64) {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	for _, rec := range t.inflight {
		if rec.EmitIndex >= uptoEmit {
			break
		}
		if rec.Stamps[StagePublish] == 0 {
			rec.Stamps[StagePublish] = now
		}
		rec.pendingVisible = true
	}
	t.mu.Unlock()
}

// StampVisible is called by the serving layer after a generation swap
// completes: every record awaiting visibility is stamped serve_visible
// and completed. Safe to call on swaps that carry no traced edges.
func (t *Tracer) StampVisible() { t.completeVisible() }

// FinishPublish is called by the pipeline after the Publish callback
// returns. Records still awaiting visibility — no serving layer is
// attached, or the publisher is not the tracer-aware server — complete
// here: with nothing downstream, published is as queryable as it gets.
func (t *Tracer) FinishPublish() { t.completeVisible() }

func (t *Tracer) completeVisible() {
	if t == nil {
		return
	}
	now := t.since()
	t.mu.Lock()
	kept := t.inflight[:0]
	var done []*Record
	for _, rec := range t.inflight {
		if rec.pendingVisible {
			if rec.Stamps[StageServeVisible] == 0 {
				rec.Stamps[StageServeVisible] = now
			}
			done = append(done, rec)
			continue
		}
		kept = append(kept, rec)
	}
	clear(t.inflight[len(kept):])
	t.inflight = kept
	for _, rec := range done {
		t.retireLocked(rec, OutcomeCompleted)
	}
	t.mu.Unlock()
}

// Recovered reconciles the tracer with a restarted pipeline that replayed
// its WAL: emittedRecovered is the number of emitted edges the replay
// reconstructed. Records the crash caught inside the reorder buffer, and
// emitted records past the recovered prefix, are retired as lost — their
// edges do not exist anymore, and keeping them would let the restarted
// pipeline's fresh edges collide with their emit indices and stamp
// phantoms. Surviving records stay open and complete through the recovery
// checkpoint like any other edge.
func (t *Tracer) Recovered(emittedRecovered int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, rec := range t.unemitted {
		t.retireLocked(rec, OutcomeLost)
	}
	t.unemitted = t.unemitted[:0]
	kept := t.inflight[:0]
	for _, rec := range t.inflight {
		if rec.EmitIndex >= emittedRecovered {
			t.retireLocked(rec, OutcomeLost)
			continue
		}
		kept = append(kept, rec)
	}
	clear(t.inflight[len(kept):])
	t.inflight = kept
	// The successor assigns emit indices from emittedRecovered, below the
	// crashed run's frontier, and its checkpoints must re-stamp survivor
	// stages the crash left empty — both skip bounds start over.
	t.maxEmit.Store(emittedRecovered)
	for s := range t.stampedUpto {
		t.stampedUpto[s].Store(0)
	}
	t.mu.Unlock()
}

// retireLocked finalizes one record: outcome, counters, ring, and — for
// completions — the per-stage and end-to-end histograms plus the SLO.
func (t *Tracer) retireLocked(rec *Record, outcome Outcome) {
	rec.Outcome = outcome
	rec.pendingVisible = false
	t.ring[t.ringNext] = rec
	t.ringNext = (t.ringNext + 1) % len(t.ring)
	if t.ringLen < len(t.ring) {
		t.ringLen++
	}
	switch outcome {
	case OutcomeCompleted:
		t.completed.Inc()
	case OutcomeCancelled:
		t.cancelled.Inc()
	case OutcomeLost:
		t.lost.Inc()
	case OutcomeEvicted:
		t.evicted.Inc()
	}
	if outcome != OutcomeCompleted {
		return
	}
	prev := rec.Stamps[StageAccept]
	last := prev
	for _, s := range PipelineOrder[1:] {
		at := rec.Stamps[s]
		if at == 0 {
			continue
		}
		d := at - prev
		if d < 0 {
			d = 0
		}
		t.stageHist[s].Observe(float64(d) / 1e9)
		prev = at
		last = at
	}
	e2e := float64(last-rec.Stamps[StageAccept]) / 1e9
	t.e2e.Observe(e2e)
	t.slo.Observe(time.Duration(last - rec.Stamps[StageAccept]))
}

// Counts is the tracer's record accounting. Sampled = Completed +
// Cancelled + Lost + Evicted + Inflight at every instant.
type Counts struct {
	Sampled   int64 `json:"sampled"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Lost      int64 `json:"lost"`
	Evicted   int64 `json:"evicted"`
	Inflight  int64 `json:"inflight"`
}

// CountsNow returns the current accounting; zero on a nil tracer.
func (t *Tracer) CountsNow() Counts {
	if t == nil {
		return Counts{}
	}
	t.mu.Lock()
	open := int64(len(t.unemitted) + len(t.inflight))
	t.mu.Unlock()
	return Counts{
		Sampled:   t.sampled.Value(),
		Completed: t.completed.Value(),
		Cancelled: t.cancelled.Value(),
		Lost:      t.lost.Value(),
		Evicted:   t.evicted.Value(),
		Inflight:  open,
	}
}

// Recent returns copies of up to n retired records, newest first. Empty
// on a nil tracer.
func (t *Tracer) Recent(n int) []Record {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.ringLen {
		n = t.ringLen
	}
	out := make([]Record, 0, n)
	for i := 1; i <= n; i++ {
		idx := (t.ringNext - i + len(t.ring)) % len(t.ring)
		out = append(out, *t.ring[idx])
	}
	return out
}

// StageSnapshot returns the named stage's histogram snapshot (zero-valued
// on a nil tracer or the accept stage, which has no latency of its own).
func (t *Tracer) StageSnapshot(s Stage) obs.HistogramSnapshot {
	if t == nil || s >= NumStages {
		return obs.HistogramSnapshot{}
	}
	return t.stageHist[s].Snapshot()
}

// EndToEndSnapshot returns the e2e freshness histogram snapshot.
func (t *Tracer) EndToEndSnapshot() obs.HistogramSnapshot {
	if t == nil {
		return obs.HistogramSnapshot{}
	}
	return t.e2e.Snapshot()
}
