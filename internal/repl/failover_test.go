package repl

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/serve"
	"ipin/internal/stream"
)

// uniformLog is the uniform stream CI's failover shapes use: edges
// interactions over nodes nodes, about four ticks per edge, seed 1, with
// strictly increasing timestamps.
func uniformLog(tb testing.TB, nodes, edges int) *graph.Log {
	tb.Helper()
	l, err := gen.Generate(gen.Config{
		Name: "uniform", Model: gen.ModelUniform, Nodes: nodes,
		Interactions: edges, SpanTicks: 4 * int64(edges), Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	l.Detie()
	return l
}

// killThePrimary streams edges through a primary that one replica
// follows, checkpointing every checkpointEdges applied edges as a
// read-serving replica does (so promotion folds a bounded tail over a
// warm cache). Once the replica has applied every edge the primary is
// killed, listener and ingester at once, and the controller must
// promote the replica. The failover is over when the promoted
// replica's server answers a query. It returns the promoted replica,
// its state directory, and the time from the kill to that answer.
func killThePrimary(tb testing.TB, edges []graph.Interaction, nodes int, omega int64, checkpointEdges int) (*Replica, string, time.Duration) {
	tb.Helper()
	ctx := context.Background()
	ing, err := stream.New(stream.Config{
		Dir: tb.TempDir(), Omega: omega, NumNodes: nodes,
		CheckpointEvery: -1, IdleFlush: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ing.Close(ctx) })
	p, err := NewPrimary(PrimaryConfig{Ingester: ing, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	srv := serve.New(serve.Config{ReadOnly: true})
	dir := tb.TempDir()
	r, err := NewReplica(ReplicaConfig{
		Dir: dir, PrimaryAddr: p.Addr(),
		CheckpointEvery: -1, CheckpointEdges: checkpointEdges,
		Publish: srv.LoadApprox,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close(ctx) })
	ctl, err := NewController(ControllerConfig{Replicas: []*Replica{r}, Timeout: 500 * time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	defer ctl.Stop()

	for _, e := range edges {
		if err := ing.Push(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ing.Checkpoint(ctx); err != nil {
		tb.Fatal(err)
	}
	fed := ing.Stats().Emitted
	caughtUp := time.Now().Add(2 * time.Minute)
	for r.Position() < fed {
		if err := r.Err(); err != nil {
			tb.Fatalf("replica failed at %d/%d: %v", r.Position(), fed, err)
		}
		if time.Now().After(caughtUp) {
			tb.Fatalf("replica stuck at %d/%d before the kill (sessions=%d)", r.Position(), fed, p.Sessions())
		}
		time.Sleep(time.Millisecond)
	}

	killAt := time.Now()
	p.Close()
	if err := ing.Close(ctx); err != nil {
		tb.Fatal(err)
	}
	for ctl.Promoted() == nil {
		if time.Since(killAt) > time.Minute {
			tb.Fatal("the controller never promoted the replica")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/influence?node=0", nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("promoted replica answered %d to the first query (%s)", rec.Code, rec.Body)
	}
	return ctl.Promoted(), dir, time.Since(killAt)
}

// TestKillThePrimary is the failover run at the shape of CI's repl job:
// 120,000 uniform edges over 5,000 nodes, ω = 1% of the span, with the
// primary killed after 70% of them. Failover must take at most 15 s.
// The promoted checkpoint must be byte-identical to the offline scan
// over the prefix the replica holds; then the rest of the log resumes
// on the promoted replica, and its final checkpoint must be
// byte-identical to the offline scan over the whole log.
func TestKillThePrimary(t *testing.T) {
	const deadline = 15 * time.Second
	l := uniformLog(t, 5000, 120_000)
	omega := l.WindowFromPercent(1)
	cut := l.Len() * 7 / 10
	winner, dir, took := killThePrimary(t, l.Interactions[:cut], l.NumNodes, omega, l.Len()/5)
	t.Logf("failover took %v", took)
	if took > deadline {
		t.Fatalf("failover took %v, above %v", took, deadline)
	}
	pos := winner.Position()
	if pos != int64(cut) {
		t.Fatalf("promoted at position %d, want %d", pos, cut)
	}
	if !bytes.Equal(ckptBytes(t, dir), offlineBytes(t, l.Interactions[:pos], omega, core.DefaultPrecision)) {
		t.Fatalf("promoted checkpoint differs from the offline scan over its %d-edge prefix", pos)
	}
	pushAll(t, winner.Ingester(), l.Interactions[cut:])
	if err := winner.Ingester().Checkpoint(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckptBytes(t, dir), offlineBytes(t, l.Interactions, omega, core.DefaultPrecision)) {
		t.Fatal("final checkpoint after the resumed feed differs from the offline scan over the whole log")
	}
}

// BenchmarkFailover is the kill-the-primary run at the recorded long
// run's shape: 500,000 uniform edges over 20,000 nodes, ω = 1% of the
// span, the primary killed after 70% of them. It reports the time from
// the kill to the promoted replica's first answer as failover-s; CI's
// perf job holds it at 5 s or less.
func BenchmarkFailover(b *testing.B) {
	l := uniformLog(b, 20_000, 500_000)
	omega := l.WindowFromPercent(1)
	cut := l.Len() * 7 / 10
	var took time.Duration
	for i := 0; i < b.N; i++ {
		_, _, d := killThePrimary(b, l.Interactions[:cut], l.NumNodes, omega, l.Len()/5)
		took += d
	}
	b.ReportMetric(took.Seconds()/float64(b.N), "failover-s")
}
