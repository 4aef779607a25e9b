package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/trace"
)

// Publishes between durable checkpoints: a publish-only job folds the
// sealed chunks plus the unsealed tail and hands it to Publish without
// writing anything. These tests pin what each publish claims, what it
// leaves on disk, and how it composes with forced checkpoints, crashes
// and the interval trigger.

// metaEdges reads the edges field of dir's checkpoint metadata, -1 when
// the file does not exist.
func metaEdges(dir string) (int64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointMetaName))
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return 0, err
	}
	var meta ckptMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return 0, err
	}
	return meta.Edges, nil
}

// TestEveryPublishMatchesOffline: every published generation — tail
// publishes and durable checkpoints alike — is byte-identical to the
// offline ComputeApprox over Interactions[retired:covered], under
// retention, reorder slack and a growing node range. The journal event
// each publish records names that range. Inside each Publish call,
// Stats().CoveredEdges and TopK().CoveredEdges still show the previous
// publish (nothing moves before Publish returns), a durable checkpoint's
// metadata and checkpoint.irx already show the one being published, and
// a tail publish leaves both as the last checkpoint wrote them. Every
// traced edge was covered by a WAL fsync before the publish that made
// it visible.
func TestEveryPublishMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const m, omega, prec, slack = 3000, 40, 4, 16
	// Edge i names nodes below 8 + i/20, so later edges widen the range.
	edges := make([]graph.Interaction, m)
	at := graph.Time(0)
	for i := range edges {
		at += graph.Time(1 + rng.Int63n(3))
		n := 8 + i/20
		edges[i] = graph.Interaction{Src: graph.NodeID(rng.Intn(n)), Dst: graph.NodeID(rng.Intn(n)), At: at}
	}
	// Arrivals shuffled within blocks of 4 positions (at most 12 ticks
	// late), inside the 16-tick slack, so nothing drops.
	arrivals := append([]graph.Interaction(nil), edges...)
	for lo := 0; lo < m; lo += 4 {
		hi := min(lo+4, m)
		rng.Shuffle(hi-lo, func(i, j int) { arrivals[lo+i], arrivals[lo+j] = arrivals[lo+j], arrivals[lo+i] })
	}

	type seen struct {
		sum                 []byte
		covered, hotCovered int64
		meta                int64
		irx                 []byte
	}
	var (
		mu    sync.Mutex
		seens []seen
		inP   atomic.Pointer[Ingester]
		hookE error
	)
	dir := t.TempDir()
	tr := trace.New(trace.Config{SampleEvery: 1, MaxInflight: 2 * m, RingSize: 2 * m})
	jr := trace.NewJournal(trace.JournalConfig{Size: 1 << 14})
	in, err := New(Config{
		Dir: dir, Omega: omega, Precision: prec, Slack: slack,
		ChunkEdges: 32, Retain: 5 * omega, ProfileWindow: omega, TopK: 5,
		CheckpointEvery: 20 * time.Millisecond, IdleFlush: -1,
		SyncEvery: -1, Tracer: tr, Journal: jr,
		Publish: func(s *core.ApproxSummaries) {
			var sv seen
			var buf bytes.Buffer
			_, err := s.WriteTo(&buf)
			sv.sum = buf.Bytes()
			if in := inP.Load(); in != nil {
				sv.covered = in.Stats().CoveredEdges
				if hv := in.TopK(); hv != nil {
					sv.hotCovered = hv.CoveredEdges
				}
			}
			if sv.meta, err = metaEdges(dir); err == nil {
				sv.irx, err = os.ReadFile(filepath.Join(dir, CheckpointName))
				if errors.Is(err, os.ErrNotExist) {
					err = nil
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && hookE == nil {
				hookE = err
			}
			seens = append(seens, sv)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	inP.Store(in)
	// Feed in bursts so interval ticks and tail publishes land mid-stream.
	for lo := 0; lo < m; lo += 50 {
		for _, e := range arrivals[lo:min(lo+50, m)] {
			if err := in.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if hookE != nil {
		t.Fatal(hookE)
	}
	st := in.Stats()
	if st.ReorderDrops != 0 || st.Emitted != m {
		t.Fatalf("stats = %+v, want %d emitted and no drops", st, m)
	}
	if st.RetiredEdges == 0 {
		t.Fatal("retention never retired a chunk")
	}

	var events []trace.Event
	for _, ev := range jr.Tail(1 << 14) {
		if ev.Type == trace.EventCheckpoint || ev.Type == trace.EventPublish {
			events = append(events, ev)
		}
	}
	if len(events) != len(seens) || int64(len(seens)) != st.Publishes {
		t.Fatalf("%d publish calls, %d journal events, Stats().Publishes %d", len(seens), len(events), st.Publishes)
	}
	var prev, durable int64 = 0, -1
	var lastIRX []byte
	tails := 0
	for i, ev := range events {
		covered := ev.Fields["edges"].(int64)
		retired := ev.Fields["retired_edges"].(int64)
		nodes := 0
		for _, e := range edges[:covered] {
			nodes = max(nodes, int(max(e.Src, e.Dst))+1)
		}
		if !bytes.Equal(seens[i].sum, offlineBytes(t, edges[retired:covered], nodes, omega, prec)) {
			t.Fatalf("publish %d (%s) over edges[%d:%d] differs from the offline scan", i, ev.Type, retired, covered)
		}
		if seens[i].covered != prev || seens[i].hotCovered != prev {
			t.Fatalf("inside publish %d: CoveredEdges %d, TopK %d, want the previous publish's %d",
				i, seens[i].covered, seens[i].hotCovered, prev)
		}
		if covered < prev || (ev.Type == trace.EventPublish && covered == prev) {
			t.Fatalf("publish %d (%s) covers %d after %d", i, ev.Type, covered, prev)
		}
		switch ev.Type {
		case trace.EventCheckpoint:
			if seens[i].meta != covered || !bytes.Equal(seens[i].irx, seens[i].sum) {
				t.Fatalf("checkpoint %d published before its metadata (%d) and IRX1 file caught up to %d", i, seens[i].meta, covered)
			}
			durable, lastIRX = covered, seens[i].irx
		default:
			tails++
			if seens[i].meta != durable || !bytes.Equal(seens[i].irx, lastIRX) {
				t.Fatalf("tail publish %d moved the checkpoint files (meta %d, last checkpoint %d)", i, seens[i].meta, durable)
			}
		}
		prev = covered
	}
	if tails == 0 {
		t.Fatal("no publish between checkpoints happened")
	}
	if st.CoveredEdges != m || st.DurableEdges != m || in.TopK().CoveredEdges != st.CoveredEdges {
		t.Fatalf("after Close: covered %d, durable %d, TopK %d, want %d", st.CoveredEdges, st.DurableEdges, in.TopK().CoveredEdges, m)
	}

	// Fsync before publish: with per-append fsync disabled, only the
	// syncs that precede a publish stamp wal_fsync.
	if c := tr.CountsNow(); c.Completed != m {
		t.Fatalf("trace counts = %+v, want %d completed", c, m)
	}
	for _, rec := range tr.Recent(m) {
		if f := rec.Stamps[trace.StageWALFsync]; f == 0 || f > rec.Stamps[trace.StagePublish] {
			t.Fatalf("edge %d published at %d, WAL fsync at %d", rec.EmitIndex, rec.Stamps[trace.StagePublish], f)
		}
	}
}

// tailPublished waits for the first publish of a fresh ingester — which,
// with no checkpoint due before the tail timer, is a tail publish — to
// cover every pushed edge, and fails if a durable checkpoint got there
// first.
func tailPublished(t *testing.T, in *Ingester, n int64) {
	t.Helper()
	pollUntil(t, "a publish covering every edge", func() bool { return in.Stats().CoveredEdges == n })
	if st := in.Stats(); st.Checkpoints != 0 || st.DurableEdges != 0 || st.Publishes != 1 {
		t.Fatalf("stats after the first publish = %+v, want one tail publish and no checkpoint", st)
	}
}

// TestForcedCheckpointAfterTailPublish: a tail publish writes no
// sidecar, IRX1 or metadata file, and leaves durable coverage where it
// was — so a forced checkpoint right after a tail publish that covered
// everything still runs, and its metadata covers everything.
func TestForcedCheckpointAfterTailPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	edges := testLog(rng, 30, 300)
	reg := obs.NewRegistry()
	dir := t.TempDir()
	in, err := New(Config{
		Dir: dir, Omega: 20, Precision: 4, ChunkEdges: 64,
		CheckpointEvery: time.Second, SyncEvery: -1, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in.Close(ctx)
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	tailPublished(t, in, int64(len(edges)))
	for _, pat := range []string{chunkFilePattern, CheckpointName, CheckpointMetaName} {
		if names, _ := filepath.Glob(filepath.Join(dir, pat)); len(names) != 0 {
			t.Fatalf("tail publish wrote %v", names)
		}
	}
	snap := reg.Snapshot()
	if snap[MetricChunkFiles].(int64) != 0 || snap[MetricCheckpoints].(int64) != 0 || snap[MetricPublishes].(int64) != 1 {
		t.Fatalf("metrics after a tail publish: %d sidecars, %d checkpoints, %d publishes",
			snap[MetricChunkFiles], snap[MetricCheckpoints], snap[MetricPublishes])
	}

	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := metaEdges(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); got != int64(len(edges)) || st.DurableEdges != int64(len(edges)) || st.Checkpoints != 1 {
		t.Fatalf("forced checkpoint after a tail publish: meta covers %d, stats %+v, want %d durable", got, st, len(edges))
	}
	irx, err := os.ReadFile(filepath.Join(dir, CheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(irx, offlineBytes(t, edges, 0, 20, 4)) {
		t.Fatal("checkpoint.irx differs from the offline scan")
	}
}

// copyDir copies the regular files of src into dst: the state a crash
// at this instant leaves on disk, as far as fsynced data goes.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		from, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		to, err := os.Create(filepath.Join(dst, ent.Name()))
		if err == nil {
			_, err = io.Copy(to, from)
			if cerr := to.Close(); err == nil {
				err = cerr
			}
		}
		from.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestRecoveryAfterTailPublish: a crash after a tail publish and before
// the next durable checkpoint loses nothing that was served. The
// directory is captured inside the tail publish — the compactor is busy
// there, so no checkpoint can write — and reopening that capture
// replays the WAL, the only durable copy of the served edges, into a
// recovery publish covering at least them, byte-identical to the
// offline scan.
func TestRecoveryAfterTailPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	edges := testLog(rng, 30, 300)
	cfg := Config{Omega: 20, Precision: 4, ChunkEdges: 64, CheckpointEvery: time.Second, SyncEvery: -1}
	dir, crash := t.TempDir(), t.TempDir()
	var captured atomic.Bool
	var captureErr error
	live := cfg
	live.Dir = dir
	live.Publish = func(*core.ApproxSummaries) {
		if captured.Load() {
			return
		}
		captureErr = copyDir(dir, crash)
		captured.Store(true)
	}
	in, err := New(live)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	tailPublished(t, in, int64(len(edges)))
	served := in.Stats().CoveredEdges
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if captureErr != nil {
		t.Fatal(captureErr)
	}

	recovered, in2 := recoverPublished(t, crash, cfg)
	defer in2.Close(ctx)
	st := in2.Stats()
	if st.CoveredEdges < served || st.RecoveredWALEdges != st.CoveredEdges || recovered == nil {
		t.Fatalf("recovery covers %d edges (%d from the WAL), %d were served before the crash", st.CoveredEdges, st.RecoveredWALEdges, served)
	}
	if !bytes.Equal(summaryBytes(t, recovered), offlineBytes(t, edges[:st.CoveredEdges], 0, 20, 4)) {
		t.Fatal("recovery publish differs from the offline scan")
	}
}

// TestTailPublishNeverSkipsDurable: an interval tick that finds only a
// tail publish in flight queues its checkpoint behind it rather than
// skipping. The first (tail) publish stalls across the next tick; the
// tick's checkpoint must still land, with nothing skipped.
func TestTailPublishNeverSkipsDurable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	edges := testLog(rng, 30, 300)
	reg := obs.NewRegistry()
	jr := trace.NewJournal(trace.JournalConfig{})
	var stalled atomic.Bool
	in, err := New(Config{
		Dir: t.TempDir(), Omega: 20, Precision: 4, ChunkEdges: 64,
		CheckpointEvery: 400 * time.Millisecond, SyncEvery: -1, Registry: reg, Journal: jr,
		Publish: func(*core.ApproxSummaries) {
			if stalled.CompareAndSwap(false, true) {
				time.Sleep(300 * time.Millisecond) // from the tail publish at 200ms past the 400ms tick
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer in.Close(ctx)
	for _, e := range edges {
		if err := in.Push(e); err != nil {
			t.Fatal(err)
		}
	}
	pollUntil(t, "the interval checkpoint", func() bool { return in.Stats().Checkpoints >= 1 })
	if skips := reg.Snapshot()[MetricCheckpointSkip].(int64); skips != 0 {
		t.Fatalf("%d interval checkpoints skipped behind a tail publish", skips)
	}
	var causes []string
	for _, ev := range jr.Tail(64) {
		if ev.Type == trace.EventCheckpoint || ev.Type == trace.EventPublish {
			causes = append(causes, ev.Type+"/"+ev.Cause)
		}
	}
	if len(causes) < 2 || causes[0] != "publish/tail" || causes[1] != "checkpoint/interval" {
		t.Fatalf("publish sequence = %v, want a tail publish then the interval checkpoint", causes)
	}
}
