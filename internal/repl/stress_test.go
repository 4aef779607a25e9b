package repl

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"ipin/internal/stream"
)

// TestCatchUpUnderFeedLoad is TestKillThePrimary's catch-up in
// miniature: the primary is fed the whole stream as fast as Push
// accepts it while one replica follows and checkpoints by edge count —
// so the replica falls behind, its session is dropped for backpressure,
// and it must re-attach (delta or resync) repeatedly until it has
// applied everything. The regression it pins is the catch-up path
// converging under sustained overload, not just under the gentle pacing
// of the other tests.
func TestCatchUpUnderFeedLoad(t *testing.T) {
	const m, nodes, omega, precision = 60_000, 2000, int64(20), 4
	rng := rand.New(rand.NewSource(11))
	edges := testLog(rng, nodes, m)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	pdir := t.TempDir()
	ing, err := stream.New(stream.Config{
		Dir: pdir, Omega: omega, Precision: precision, NumNodes: nodes,
		CheckpointEvery: -1, IdleFlush: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(PrimaryConfig{Ingester: ing, HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rdir := t.TempDir()
	rep, err := NewReplica(ReplicaConfig{
		Dir: rdir, PrimaryAddr: p.Addr(),
		CheckpointEvery: -1, CheckpointEdges: max(m/5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close(ctx)

	pushAll(t, ing, edges)
	if err := ing.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	fed := ing.Stats().Emitted

	deadline := time.Now().Add(10 * time.Minute)
	last, lastMove := int64(-1), time.Now()
	lastLog := time.Now()
	for rep.Position() < fed {
		if err := rep.Err(); err != nil {
			t.Fatalf("replica failed at %d/%d: %v", rep.Position(), fed, err)
		}
		if pos := rep.Position(); pos != last {
			last, lastMove = pos, time.Now()
		} else if time.Since(lastMove) > 90*time.Second {
			t.Fatalf("replica made no progress for 90s at %d/%d (sessions=%d)", last, fed, p.Sessions())
		}
		if testing.Verbose() && time.Since(lastLog) > 5*time.Second {
			t.Logf("catch-up %d/%d (sessions=%d)", last, fed, p.Sessions())
			lastLog = time.Now()
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d/%d", rep.Position(), fed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := ing.Close(ctx); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := rep.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if pos := rep.Position(); pos != fed {
		t.Fatalf("promoted at %d, want %d", pos, fed)
	}
	want := offlineBytes(t, edges, omega, precision)
	if got := ckptBytes(t, rdir); !bytes.Equal(got, want) {
		t.Fatalf("promoted checkpoint diverges from the offline scan (%d vs %d bytes)", len(got), len(want))
	}
}
