package trace

import (
	"encoding/json"
	"net/http"

	"ipin/internal/obs"
)

// The /debug/pipeline health surface: one JSON document an operator (or a
// dashboard) reads to answer "how fresh is the answer right now, and
// why?" — current per-stage latencies, SLO budget and burn, pipeline
// status (watermark lag, disk footprint) from a caller-supplied callback,
// the recent lifecycle event tail, and the last few complete traces.

// StageStats summarizes one stage's latency distribution.
type StageStats struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

func statsOf(s obs.HistogramSnapshot) StageStats {
	st := StageStats{
		Count: s.Count,
		P50Ms: obs.Quantile(s, 0.5) * 1e3,
		P90Ms: obs.Quantile(s, 0.9) * 1e3,
		P99Ms: obs.Quantile(s, 0.99) * 1e3,
	}
	if s.Count > 0 {
		st.MeanMs = s.Sum / float64(s.Count) * 1e3
	}
	return st
}

// StageLatency pairs a stage name with its stats, in pipeline order.
type StageLatency struct {
	Stage string `json:"stage"`
	StageStats
}

// StampView is one stamped stage of a RecordView, as an offset from
// accept.
type StampView struct {
	Stage    string  `json:"stage"`
	OffsetMs float64 `json:"offset_ms"`
}

// RecordView is the JSON shape of one retired trace record.
type RecordView struct {
	Src       int64       `json:"src"`
	Dst       int64       `json:"dst"`
	At        int64       `json:"at"`
	EmitIndex int64       `json:"emit_index"`
	Outcome   string      `json:"outcome"`
	Stages    []StampView `json:"stages"`
}

func viewOf(rec Record) RecordView {
	v := RecordView{
		Src: int64(rec.Src), Dst: int64(rec.Dst), At: int64(rec.At),
		EmitIndex: rec.EmitIndex, Outcome: string(rec.Outcome),
	}
	accept := rec.Stamps[StageAccept]
	for _, s := range PipelineOrder {
		if at := rec.Stamps[s]; at != 0 {
			v.Stages = append(v.Stages, StampView{Stage: s.String(), OffsetMs: float64(at-accept) / 1e6})
		}
	}
	return v
}

// TracerSnapshot is the tracer section of the health payload.
type TracerSnapshot struct {
	SampleEvery int            `json:"sample_every"`
	Counts      Counts         `json:"counts"`
	Stages      []StageLatency `json:"stages"`
	EndToEnd    StageStats     `json:"e2e"`
	SLO         *SLOSnapshot   `json:"slo,omitempty"`
	Recent      []RecordView   `json:"recent,omitempty"`
}

// Snapshot renders the tracer's current state; zero-valued on nil.
func (t *Tracer) Snapshot(recent int) TracerSnapshot {
	if t == nil {
		return TracerSnapshot{}
	}
	snap := TracerSnapshot{SampleEvery: int(t.every), Counts: t.CountsNow()}
	for _, s := range PipelineOrder[1:] {
		snap.Stages = append(snap.Stages, StageLatency{Stage: s.String(), StageStats: statsOf(t.StageSnapshot(s))})
	}
	snap.EndToEnd = statsOf(t.EndToEndSnapshot())
	if t.slo != nil {
		s := t.slo.Snapshot()
		snap.SLO = &s
	}
	for _, rec := range t.Recent(recent) {
		snap.Recent = append(snap.Recent, viewOf(rec))
	}
	return snap
}

// Health is the /debug/pipeline endpoint: mount it on any mux. Every
// field is optional — absent sections are simply omitted from the
// payload, so the same handler serves an ingest-only process, a
// serve-only process, or both.
type Health struct {
	// Tracer contributes stage latencies, SLO state, and recent traces.
	Tracer *Tracer
	// Journal contributes the recent lifecycle event tail.
	Journal *Journal
	// Status contributes pipeline-specific live state (watermark lag,
	// WAL/sidecar disk footprint, generation); called per request.
	Status func() map[string]any
	// Events bounds the journal tail; 0 selects 32.
	Events int
	// RecentTraces bounds the trace tail; 0 selects 8.
	RecentTraces int
}

// ServeHTTP renders the health document.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	events := h.Events
	if events <= 0 {
		events = 32
	}
	recent := h.RecentTraces
	if recent <= 0 {
		recent = 8
	}
	doc := make(map[string]any)
	if h.Tracer != nil {
		doc["trace"] = h.Tracer.Snapshot(recent)
	}
	if h.Journal != nil {
		doc["events"] = h.Journal.Tail(events)
	}
	if h.Status != nil {
		doc["status"] = h.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
