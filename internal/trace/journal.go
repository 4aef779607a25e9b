package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"ipin/internal/obs"
)

// The lifecycle event journal: a bounded in-memory ring of structured
// events (segment rotations, chunk seals, checkpoints, compaction
// deletions, snapshot reloads, shed decisions — each with cause and
// duration) plus an optional JSON-lines sink for durable postmortems.
// Event rates are operator-scale (rotations and checkpoints, not edges),
// so a mutex and a map per event are fine; the hot path never touches
// the journal.

// Event is one journal entry. Fields carries event-specific detail
// (counts, byte sizes, sequence numbers).
type Event struct {
	At         time.Time      `json:"ts"`
	Type       string         `json:"type"`
	Cause      string         `json:"cause,omitempty"`
	DurationMs float64        `json:"duration_ms,omitempty"`
	Fields     map[string]any `json:"fields,omitempty"`
}

// Journal event types emitted by the pipeline and serving layers.
const (
	EventSegmentRotate    = "segment_rotate"
	EventWALTruncate      = "wal_truncate"
	EventChunkSeal        = "chunk_seal"
	EventChunkPersist     = "chunk_persist"
	EventChunkRetire      = "chunk_retire"
	EventCheckpoint       = "checkpoint"
	EventPublish          = "publish" // a publish between durable checkpoints
	EventCompactionDelete = "compaction_delete"
	EventRecovery         = "recovery"
	EventSnapshotReload   = "snapshot_reload"
	EventShed             = "shed"

	// Replication lifecycle (internal/repl): a replica session attached
	// to the primary, a replica finished syncing to the primary's
	// position, a replica lost its primary, and a replica was promoted.
	EventReplAttach  = "repl_attach"
	EventReplSync    = "repl_sync"
	EventReplLost    = "repl_lost"
	EventReplPromote = "repl_promote"
)

// JournalConfig parameterizes a Journal.
type JournalConfig struct {
	// Size bounds the in-memory ring; 0 selects 512.
	Size int
	// Sink, when non-nil, additionally receives every event as one JSON
	// line. Writes happen under the journal lock in event order; hand it
	// an *os.File or a buffered writer the caller flushes on shutdown.
	Sink io.Writer
	// Registry receives trace_journal_events_total{type=...}; nil
	// disables metrics.
	Registry *obs.Registry
}

// Journal is the bounded lifecycle event log. A nil *Journal is a no-op,
// so pipelines record events unconditionally.
type Journal struct {
	mu   sync.Mutex
	ring []Event
	next int
	n    int
	sink io.Writer
	reg  *obs.Registry
}

// NewJournal returns a Journal over the given configuration.
func NewJournal(cfg JournalConfig) *Journal {
	if cfg.Size <= 0 {
		cfg.Size = 512
	}
	return &Journal{ring: make([]Event, cfg.Size), sink: cfg.Sink, reg: cfg.Registry}
}

// Record appends one event, stamped now. No-op on a nil receiver. The
// fields map is retained; callers must not mutate it afterwards.
func (j *Journal) Record(typ, cause string, d time.Duration, fields map[string]any) {
	if j == nil {
		return
	}
	ev := Event{At: time.Now(), Type: typ, Cause: cause, Fields: fields}
	if d > 0 {
		ev.DurationMs = float64(d) / 1e6
	}
	// Counter lookup is get-or-create by full name; event rates are low.
	j.reg.Counter(MetricJournalEvt+`{type="`+typ+`"}`, "Lifecycle events recorded in the journal.").Inc()
	j.mu.Lock()
	j.ring[j.next] = ev
	j.next = (j.next + 1) % len(j.ring)
	if j.n < len(j.ring) {
		j.n++
	}
	if j.sink != nil {
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			_, _ = j.sink.Write(b)
		}
	}
	j.mu.Unlock()
}

// Tail returns up to n most recent events, oldest first (log order).
// Empty on a nil receiver.
func (j *Journal) Tail(n int) []Event {
	if j == nil || n <= 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > j.n {
		n = j.n
	}
	out := make([]Event, 0, n)
	for i := n; i >= 1; i-- {
		idx := (j.next - i + len(j.ring)) % len(j.ring)
		out = append(out, j.ring[idx])
	}
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}
