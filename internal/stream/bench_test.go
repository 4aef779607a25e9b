package stream

import (
	"context"
	"sort"
	"testing"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/trace"
)

// BenchmarkIntake pushes CI's intake shape, 80,000 uniform edges over
// 5,000 nodes (ω = 1% of the span), into an ingester that checkpoints
// every 100 ms while it absorbs, with 256 KiB WAL segments. It reports
// the push loop's rate as edges/s; Close, which drains and folds the
// rest, is not timed. CI's perf job holds it at 2,000 edges/s or more,
// a floor far under what one core sustains, so only a real regression
// trips it.
func BenchmarkIntake(b *testing.B) {
	l := uniformLog(b, 5000, 80_000)
	omega := l.WindowFromPercent(1)
	ctx := context.Background()
	var pushing time.Duration
	for i := 0; i < b.N; i++ {
		in, err := New(Config{
			Dir: b.TempDir(), Omega: omega, NumNodes: l.NumNodes,
			CheckpointEvery: 100 * time.Millisecond, SegmentBytes: 256 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for _, e := range l.Interactions {
			if err := in.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		pushing += time.Since(start)
		if err := in.Close(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(l.Len())/pushing.Seconds(), "edges/s")
}

// BenchmarkTracerShare holds what tracing one edge in 1,024 costs as a
// share of what intake costs per edge. Timing the pipeline with and
// without a tracer cannot resolve a few percent on a shared machine, so
// each iteration measures the two apart. Intake's cost is the wall time
// per edge of an untraced ingester over 80,000 uniform edges and 5,000
// nodes, timed until every edge is logged. The tracer's cost is a
// replay of the calls such an ingester makes on a 1/1024 tracer, in the
// batch size the untraced run logged in (replayTracer). It reports the
// median ratio as tracer-share; CI's perf job holds it at 0.05 or less.
func BenchmarkTracerShare(b *testing.B) {
	l := uniformLog(b, 5000, 80_000)
	omega := l.WindowFromPercent(1)
	ctx := context.Background()
	shares := make([]float64, 0, b.N)
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		in, err := New(Config{
			Dir: b.TempDir(), Omega: omega, NumNodes: l.NumNodes,
			CheckpointEvery: -1, SegmentBytes: 256 << 10, Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for _, e := range l.Interactions {
			if err := in.Push(e); err != nil {
				b.Fatal(err)
			}
		}
		for in.Stats().Emitted < int64(l.Len()) {
			time.Sleep(100 * time.Microsecond)
		}
		intake := time.Since(start)
		if err := in.Close(ctx); err != nil {
			b.Fatal(err)
		}
		records := reg.Snapshot()[MetricWALRecords].(int64)
		batch := (l.Len() + int(records) - 1) / int(records)

		tr := trace.New(trace.Config{SampleEvery: 1024, MaxInflight: 1 << 20})
		start = time.Now()
		replayTracer(tr, l.Interactions, batch, 16384)
		hooks := time.Since(start)
		if c := tr.CountsNow(); c.Sampled == 0 || c.Completed != c.Sampled {
			b.Fatalf("replay left records open: %+v", c)
		}
		shares = append(shares, float64(hooks)/float64(intake))
	}
	sort.Float64s(shares)
	b.ReportMetric(shares[len(shares)/2], "tracer-share")
}

// replayTracer makes the tracer calls an ingester makes for edges that
// arrive in order and are absorbed batch at a time: SampleAccept for
// every edge and Emitted for every sampled one, the wal_append and
// wal_fsync stamps for every batch, and for every sealed chunk of chunk
// edges the chunk_seal stamp plus one checkpoint's stamps and publish,
// which complete the records it covers. Each sampled record's own cost
// is thereby spread over the 1/SampleEvery edges it stands for.
func replayTracer(tr *trace.Tracer, edges []graph.Interaction, batch, chunk int) {
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		for i, e := range edges[lo:hi] {
			if rec := tr.SampleAccept(e); rec != nil {
				tr.Emitted(rec, int64(lo+i))
			}
		}
		tr.StampThrough(trace.StageWALAppend, int64(hi))
		tr.StampThrough(trace.StageWALFsync, int64(hi))
		if hi/chunk == lo/chunk && hi < len(edges) {
			continue
		}
		covered := int64(hi)
		for _, s := range []trace.Stage{trace.StageChunkSeal, trace.StageFoldStart, trace.StageFold, trace.StageCheckpointWrite} {
			tr.StampThrough(s, covered)
		}
		tr.BeginPublish(covered)
		tr.FinishPublish()
	}
}
