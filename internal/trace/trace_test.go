package trace

import (
	"strings"
	"testing"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
)

// sampleOne pushes arrivals until the tracer samples one (cadence 1 makes
// that the first arrival).
func sampleOne(t *testing.T, tr *Tracer, e graph.Interaction) *Record {
	t.Helper()
	rec := tr.SampleAccept(e)
	if rec == nil {
		t.Fatal("cadence-1 tracer did not sample")
	}
	return rec
}

func TestStageNames(t *testing.T) {
	// Stage values are positional: a stage appended later keeps every
	// earlier stage's number (consumers address histograms by value).
	want := []string{
		"accept", "reorder_emit", "wal_append", "wal_fsync", "chunk_seal",
		"fold", "checkpoint_write", "publish", "serve_visible", "fold_start",
	}
	if int(NumStages) != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for s := StageAccept; s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
	if NumStages.String() != "invalid" {
		t.Fatalf("out-of-range stage = %q", NumStages.String())
	}
	// The pipeline order an edge crosses them in: fold_start sits
	// between chunk_seal and fold, and every stage appears exactly once.
	order := []string{
		"accept", "reorder_emit", "wal_append", "wal_fsync", "chunk_seal",
		"fold_start", "fold", "checkpoint_write", "publish", "serve_visible",
	}
	seen := make(map[Stage]bool)
	for i, s := range PipelineOrder {
		if s.String() != order[i] {
			t.Fatalf("PipelineOrder[%d] = %q, want %q", i, s.String(), order[i])
		}
		if seen[s] {
			t.Fatalf("PipelineOrder repeats %q", s)
		}
		seen[s] = true
	}
}

// TestNilSafety: every exported method must be a no-op on a nil receiver —
// the contract that lets pipelines instrument unconditionally.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if rec := tr.SampleAccept(graph.Interaction{}); rec != nil {
		t.Fatal("nil tracer sampled")
	}
	tr.Cancel(nil)
	tr.Emitted(nil, 0)
	tr.StampThrough(StageWALAppend, 10)
	tr.BeginPublish(10)
	tr.StampVisible()
	tr.FinishPublish()
	tr.Recovered(0)
	if c := tr.CountsNow(); c != (Counts{}) {
		t.Fatalf("nil counts = %+v", c)
	}
	if tr.Recent(5) != nil || tr.SampleEveryN() != 0 || tr.SLOTracker() != nil {
		t.Fatal("nil tracer leaked state")
	}
	if snap := tr.Snapshot(4); snap.SampleEvery != 0 {
		t.Fatal("nil tracer snapshot not zero")
	}

	var j *Journal
	j.Record(EventCheckpoint, "x", time.Second, nil)
	if j.Tail(3) != nil || j.Len() != 0 {
		t.Fatal("nil journal leaked state")
	}

	var s *SLO
	s.Observe(time.Second)
	if s.Snapshot() != (SLOSnapshot{}) {
		t.Fatal("nil SLO snapshot not zero")
	}
}

func TestSamplingCadence(t *testing.T) {
	tr := New(Config{SampleEvery: 3})
	var sampled int
	for i := 0; i < 30; i++ {
		if tr.SampleAccept(graph.Interaction{Src: 0, Dst: 1, At: graph.Time(i)}) != nil {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 30 at cadence 3, want 10", sampled)
	}
}

// TestLifecycle walks one record through every stage and checks the
// stamps are monotone, the record completes exactly once, and the
// histograms and ring see it.
func TestLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{SampleEvery: 1, Registry: reg, SLO: SLOConfig{Objective: time.Hour}})
	rec := sampleOne(t, tr, graph.Interaction{Src: 3, Dst: 7, At: 42})
	tr.Emitted(rec, 0)
	tr.StampThrough(StageWALAppend, 1)
	tr.StampThrough(StageWALFsync, 1)
	tr.StampThrough(StageChunkSeal, 1)
	tr.StampThrough(StageFoldStart, 1)
	tr.StampThrough(StageFold, 1)
	tr.StampThrough(StageCheckpointWrite, 1)
	tr.BeginPublish(1)
	tr.StampVisible()
	tr.FinishPublish() // second completion attempt must be a no-op

	c := tr.CountsNow()
	if c.Sampled != 1 || c.Completed != 1 || c.Inflight != 0 {
		t.Fatalf("counts = %+v", c)
	}
	recent := tr.Recent(10)
	if len(recent) != 1 || recent[0].Outcome != OutcomeCompleted {
		t.Fatalf("recent = %+v", recent)
	}
	got := recent[0]
	if got.Src != 3 || got.Dst != 7 || got.At != 42 || got.EmitIndex != 0 {
		t.Fatalf("record identity = %+v", got)
	}
	prev := int64(0)
	for _, s := range PipelineOrder {
		at := got.Stamps[s]
		if at == 0 {
			t.Fatalf("stage %s unstamped", s)
		}
		if at < prev {
			t.Fatalf("stage %s stamp %d before previous %d", s, at, prev)
		}
		prev = at
	}
	if snap := tr.EndToEndSnapshot(); snap.Count != 1 {
		t.Fatalf("e2e count = %d", snap.Count)
	}
	if snap := tr.StageSnapshot(StageServeVisible); snap.Count != 1 {
		t.Fatalf("serve_visible count = %d", snap.Count)
	}
	if slo := tr.SLOTracker().Snapshot(); slo.Observed != 1 || slo.Breaches != 0 {
		t.Fatalf("slo = %+v", slo)
	}
}

// TestWriteOnceStamps: re-stamping a stage must not move the stamp; the
// property that makes batch stamping idempotent.
func TestWriteOnceStamps(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	rec := sampleOne(t, tr, graph.Interaction{At: 1})
	tr.Emitted(rec, 0)
	tr.StampThrough(StageWALAppend, 1)
	first := rec.Stamps[StageWALAppend]
	time.Sleep(time.Millisecond)
	tr.StampThrough(StageWALAppend, 1)
	if rec.Stamps[StageWALAppend] != first {
		t.Fatal("stamp overwritten")
	}
}

// TestStampThroughBound: only records below the emit bound are stamped.
func TestStampThroughBound(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	a := sampleOne(t, tr, graph.Interaction{At: 1})
	b := sampleOne(t, tr, graph.Interaction{At: 2})
	tr.Emitted(a, 0)
	tr.Emitted(b, 1)
	tr.StampThrough(StageWALAppend, 1)
	if a.Stamps[StageWALAppend] == 0 {
		t.Fatal("covered record not stamped")
	}
	if b.Stamps[StageWALAppend] != 0 {
		t.Fatal("uncovered record stamped")
	}
}

func TestCancel(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	rec := sampleOne(t, tr, graph.Interaction{At: 5})
	tr.Cancel(rec)
	c := tr.CountsNow()
	if c.Cancelled != 1 || c.Inflight != 0 {
		t.Fatalf("counts = %+v", c)
	}
	if snap := tr.EndToEndSnapshot(); snap.Count != 0 {
		t.Fatal("cancelled record fed the e2e histogram")
	}
}

func TestInflightEviction(t *testing.T) {
	tr := New(Config{SampleEvery: 1, MaxInflight: 2})
	recs := make([]*Record, 3)
	for i := range recs {
		recs[i] = sampleOne(t, tr, graph.Interaction{At: graph.Time(i)})
		tr.Emitted(recs[i], int64(i))
	}
	c := tr.CountsNow()
	if c.Evicted != 1 || c.Inflight != 2 {
		t.Fatalf("counts = %+v", c)
	}
	if recs[0].Outcome != OutcomeEvicted {
		t.Fatalf("oldest record outcome = %q", recs[0].Outcome)
	}
}

// TestRecovered: records the crash caught unemitted, and emitted records
// past the recovered prefix, retire as lost; survivors stay open and can
// still complete.
func TestRecovered(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	survivor := sampleOne(t, tr, graph.Interaction{At: 1})
	tr.Emitted(survivor, 0)
	tr.StampThrough(StageWALAppend, 1)
	gone := sampleOne(t, tr, graph.Interaction{At: 2})
	tr.Emitted(gone, 1)
	buffered := sampleOne(t, tr, graph.Interaction{At: 3}) // never emitted

	tr.Recovered(1) // replay reconstructed only emit index 0
	c := tr.CountsNow()
	if c.Lost != 2 || c.Inflight != 1 {
		t.Fatalf("counts after recovery = %+v", c)
	}
	if gone.Outcome != OutcomeLost || buffered.Outcome != OutcomeLost {
		t.Fatal("lost records not retired as lost")
	}
	// The survivor completes through the recovery checkpoint.
	tr.StampThrough(StageFold, 1)
	tr.StampThrough(StageCheckpointWrite, 1)
	tr.BeginPublish(1)
	tr.FinishPublish()
	c = tr.CountsNow()
	if c.Completed != 1 || c.Inflight != 0 {
		t.Fatalf("counts after completion = %+v", c)
	}
}

func TestSLOBreachAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSLO(SLOConfig{Objective: 10 * time.Millisecond, Target: 0.5, BurnWindow: time.Minute}, reg)
	s.Observe(time.Millisecond)      // ok
	s.Observe(time.Second)           // breach
	s.Observe(2 * time.Millisecond)  // ok
	s.Observe(20 * time.Millisecond) // breach
	snap := s.Snapshot()
	if snap.Observed != 4 || snap.Breaches != 2 {
		t.Fatalf("observed/breaches = %d/%d", snap.Observed, snap.Breaches)
	}
	if snap.Attainment != 0.5 {
		t.Fatalf("attainment = %v", snap.Attainment)
	}
	// Target 0.5 allows 2 breaches in 4: budget exactly spent.
	if snap.BudgetRemaining != 0 {
		t.Fatalf("budget = %v", snap.BudgetRemaining)
	}
	// Breaching at exactly the sustainable rate: burn rate 1.
	if snap.BurnRate != 1 {
		t.Fatalf("burn rate = %v", snap.BurnRate)
	}
	if snap.WindowObserved != 4 || snap.WindowBreaches != 2 {
		t.Fatalf("window = %d/%d", snap.WindowObserved, snap.WindowBreaches)
	}
	// The ppm gauges render through the registry.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		MetricSLOAttain + " 500000",
		MetricSLOBudget + " 0",
		MetricSLOBurn + " 1000000",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestJournalRingAndSink(t *testing.T) {
	var sink strings.Builder
	reg := obs.NewRegistry()
	j := NewJournal(JournalConfig{Size: 3, Sink: &sink, Registry: reg})
	j.Record(EventChunkSeal, "", 0, map[string]any{"edges": 10})
	j.Record(EventCheckpoint, "interval", 2*time.Millisecond, nil)
	j.Record(EventCheckpoint, "forced", 0, nil)
	j.Record(EventShed, "queue_full", 0, nil) // rolls the first event out
	if j.Len() != 3 {
		t.Fatalf("len = %d, want 3", j.Len())
	}
	tail := j.Tail(10)
	if len(tail) != 3 {
		t.Fatalf("tail = %d events", len(tail))
	}
	want := []string{EventCheckpoint, EventCheckpoint, EventShed}
	for i, ev := range tail {
		if ev.Type != want[i] {
			t.Fatalf("tail[%d] = %q, want %q", i, ev.Type, want[i])
		}
	}
	if tail[0].Cause != "interval" || tail[0].DurationMs != 2 {
		t.Fatalf("tail[0] = %+v", tail[0])
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink got %d lines, want 4", len(lines))
	}
	if !strings.Contains(lines[0], `"type":"chunk_seal"`) || !strings.Contains(lines[0], `"edges":10`) {
		t.Fatalf("sink line 0 = %s", lines[0])
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, MetricJournalEvt+`{type="checkpoint"} 2`) {
		t.Fatalf("journal counters missing:\n%s", text)
	}
}

// TestAccountingInvariant: Sampled = Completed + Cancelled + Lost +
// Evicted + Inflight under a mixed workload.
func TestAccountingInvariant(t *testing.T) {
	tr := New(Config{SampleEvery: 1, MaxInflight: 4})
	emit := int64(0)
	for i := 0; i < 100; i++ {
		rec := tr.SampleAccept(graph.Interaction{At: graph.Time(i)})
		switch i % 5 {
		case 0:
			tr.Cancel(rec)
		default:
			tr.Emitted(rec, emit)
			emit++
		}
		if i%10 == 9 {
			tr.StampThrough(StageWALAppend, emit)
			tr.BeginPublish(emit)
			tr.StampVisible()
		}
	}
	c := tr.CountsNow()
	if got := c.Completed + c.Cancelled + c.Lost + c.Evicted + c.Inflight; got != c.Sampled {
		t.Fatalf("accounting leak: %+v (sum %d != sampled %d)", c, got, c.Sampled)
	}
	if c.Cancelled != 20 {
		t.Fatalf("cancelled = %d, want 20", c.Cancelled)
	}
}
