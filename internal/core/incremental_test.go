package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"ipin/internal/graph"
	"ipin/internal/vhll"
)

// foldBytes encodes summaries to their canonical IRX1 bytes.
func foldBytes(t *testing.T, s *ApproxSummaries) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// appendRandomChunks slices l into random contiguous chunks and appends
// each; returns the builder.
func appendRandomChunks(t *testing.T, rng *rand.Rand, l *graph.Log, omega int64, precision int) *IncrementalApprox {
	t.Helper()
	inc, err := NewIncrementalApprox(omega, precision, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	edges := l.Interactions
	for lo := 0; lo < len(edges); {
		hi := lo + 1 + rng.Intn(len(edges)-lo)
		if err := inc.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
			t.Fatalf("AppendChunk[%d:%d]: %v", lo, hi, err)
		}
		lo = hi
	}
	return inc
}

// TestIncrementalFoldIdentity: folding randomly sized sealed chunks must
// reproduce the sequential one-pass scan byte for byte, across windows
// from a single tick to beyond the whole span (the latter defeats the
// boundary walk's early break, exercising full-chunk stitches).
func TestIncrementalFoldIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(400)
		l := randomLog(rng, n, m)
		for _, omega := range []int64{1, 3, int64(m/4 + 1), int64(m) + 10} {
			want := foldBytes(t, mustApprox(t, l, omega, 4))
			inc := appendRandomChunks(t, rng, l, omega, 4)
			got := foldBytes(t, inc.View().Fold())
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d omega %d: fold differs from ComputeApprox (n=%d m=%d chunks=%d)",
					trial, omega, n, m, inc.NumChunks())
			}
		}
	}
}

func mustApprox(t *testing.T, l *graph.Log, omega int64, precision int) *ApproxSummaries {
	t.Helper()
	s, err := ComputeApprox(l, omega, precision)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIncrementalFoldDoesNotMutateChunks: a fold must leave the cached
// block-local state intact, so folding again — with or without more
// chunks in between — still matches the offline scan over the covered
// prefix.
func TestIncrementalFoldDoesNotMutateChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randomLog(rng, 25, 300)
	const omega = 40
	inc, err := NewIncrementalApprox(omega, 4, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	edges := l.Interactions
	cut := len(edges) / 3
	if err := inc.AppendChunk(edges[:cut], l.NumNodes); err != nil {
		t.Fatal(err)
	}
	prefix := &graph.Log{NumNodes: l.NumNodes, Interactions: edges[:cut]}
	wantPrefix := foldBytes(t, mustApprox(t, prefix, omega, 4))
	first := foldBytes(t, inc.View().Fold())
	if !bytes.Equal(first, wantPrefix) {
		t.Fatal("first fold differs from offline prefix scan")
	}
	// Fold the same view again: identical, so the first fold mutated
	// nothing it shouldn't have.
	if again := foldBytes(t, inc.View().Fold()); !bytes.Equal(again, first) {
		t.Fatal("refold of the same view differs")
	}
	if err := inc.AppendChunk(edges[cut:], l.NumNodes); err != nil {
		t.Fatal(err)
	}
	wantFull := foldBytes(t, mustApprox(t, l, omega, 4))
	if got := foldBytes(t, inc.View().Fold()); !bytes.Equal(got, wantFull) {
		t.Fatal("fold after further appends differs from offline full scan")
	}
}

// TestIncrementalFoldConcurrentWithAppend: a snapshot taken with View
// may fold on another goroutine while the owner seals more chunks — the
// compactor/ingester split of internal/stream. Run under -race.
func TestIncrementalFoldConcurrentWithAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randomLog(rng, 30, 2000)
	const omega = 100
	inc, err := NewIncrementalApprox(omega, 4, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	edges := l.Interactions
	half := len(edges) / 2
	if err := inc.AppendChunk(edges[:half], l.NumNodes); err != nil {
		t.Fatal(err)
	}
	view := inc.View()
	var wg sync.WaitGroup
	var folded *ApproxSummaries
	wg.Add(1)
	go func() {
		defer wg.Done()
		folded = view.Fold()
	}()
	for lo := half; lo < len(edges); {
		hi := lo + 100
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := inc.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	wg.Wait()
	prefix := &graph.Log{NumNodes: l.NumNodes, Interactions: edges[:half]}
	if !bytes.Equal(foldBytes(t, folded), foldBytes(t, mustApprox(t, prefix, omega, 4))) {
		t.Fatal("concurrent fold differs from offline prefix scan")
	}
	if got := foldBytes(t, inc.View().Fold()); !bytes.Equal(got, foldBytes(t, mustApprox(t, l, omega, 4))) {
		t.Fatal("final fold differs from offline full scan")
	}
}

// TestIncrementalGrowNodes: later chunks may widen the node range; the
// fold matches an offline scan over the final range.
func TestIncrementalGrowNodes(t *testing.T) {
	inc, err := NewIncrementalApprox(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 1, At: 1}}, 2); err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 1, Dst: 4, At: 3}, {Src: 4, Dst: 3, At: 5}}, 5); err != nil {
		t.Fatal(err)
	}
	if inc.NumNodes() != 5 || inc.EdgeCount() != 3 || inc.LastAt() != 5 {
		t.Fatalf("state = %d nodes, %d edges, last %d", inc.NumNodes(), inc.EdgeCount(), inc.LastAt())
	}
	l := graph.New(5)
	l.Add(0, 1, 1)
	l.Add(1, 4, 3)
	l.Add(4, 3, 5)
	if !bytes.Equal(foldBytes(t, inc.View().Fold()), foldBytes(t, mustApprox(t, l, 10, 4))) {
		t.Fatal("grown fold differs from offline scan")
	}
}

// TestFoldCacheIncrementalIdentity: folding after EVERY appended chunk —
// so each fold past the first takes the cached-delta path, chained on
// the previous fold's cache — must stay byte-identical to the offline
// one-pass scan over the covered prefix, across windows from one tick to
// beyond the whole span. This is the property that licenses amortized
// checkpoints in internal/stream.
func TestFoldCacheIncrementalIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(400)
		l := randomLog(rng, n, m)
		for _, omega := range []int64{1, 3, int64(m/4 + 1), int64(m) + 10} {
			inc, err := NewIncrementalApprox(omega, 4, l.NumNodes)
			if err != nil {
				t.Fatal(err)
			}
			edges := l.Interactions
			for lo := 0; lo < len(edges); {
				hi := lo + 1 + rng.Intn(len(edges)-lo)
				if err := inc.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
					t.Fatalf("AppendChunk[%d:%d]: %v", lo, hi, err)
				}
				prefix := &graph.Log{NumNodes: l.NumNodes, Interactions: edges[:hi]}
				want := foldBytes(t, mustApprox(t, prefix, omega, 4))
				if got := foldBytes(t, inc.View().Fold()); !bytes.Equal(got, want) {
					t.Fatalf("trial %d omega %d: cached fold over edges[:%d] differs from ComputeApprox (n=%d m=%d chunks=%d)",
						trial, omega, hi, n, m, inc.NumChunks())
				}
				lo = hi
			}
		}
	}
}

// TestFoldTailIdentity: a tail fold — the unsealed tail walked back
// through the sealed chunks against their cached fold — must equal the
// offline scan over the retained edges plus the tail: for empty tails,
// for tails that widen the node range past the sealed chunks', and
// after Retire. The cached Fold after the next sealed chunk must still
// equal the offline scan over the sealed chunks alone, which proves the
// tail never entered the fold cache (a cached tail would stand in for a
// chunk holding different edges).
func TestFoldTailIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// offline scans all[from:] over the node range all of all implies —
	// the range a builder that sealed every edge in all would carry.
	offline := func(all []graph.Interaction, from int, omega int64) []byte {
		n := 0
		for _, e := range all {
			n = max(n, int(max(e.Src, e.Dst))+1)
		}
		return foldBytes(t, mustApprox(t, &graph.Log{NumNodes: n, Interactions: all[from:]}, omega, 4))
	}
	var widened, retired, empty int
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(400)
		edges := randomLog(rng, n, m).Interactions
		for _, omega := range []int64{1, 3, int64(m/4 + 1), int64(m) + 10} {
			inc, err := NewIncrementalApprox(omega, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(edges); {
				hi := lo + 1 + rng.Intn(len(edges)-lo)
				nodes := inc.NumNodes()
				for _, e := range edges[lo:hi] {
					nodes = max(nodes, int(max(e.Src, e.Dst))+1)
				}
				if err := inc.AppendChunk(edges[lo:hi], nodes); err != nil {
					t.Fatalf("AppendChunk[%d:%d]: %v", lo, hi, err)
				}
				// The cached Fold after the previous iteration's tail fold:
				// had that tail entered the cache, it would now stand in for
				// a chunk holding different edges.
				if !bytes.Equal(foldBytes(t, inc.View().Fold()), offline(edges[:hi], inc.RetiredEdges(), omega)) {
					t.Fatalf("trial %d omega %d: Fold over edges[:%d] after a tail fold is not the sealed fold", trial, omega, hi)
				}
				if rng.Intn(4) == 0 {
					if c, _ := inc.Retire(int64(rng.Intn(int(edges[hi-1].At) + 1))); c > 0 {
						retired++
					}
				}
				tail := edges[hi : hi+rng.Intn(len(edges)-hi+1)]
				for _, e := range tail {
					if int(max(e.Src, e.Dst)) >= inc.NumNodes() {
						widened++
						break
					}
				}
				if len(tail) == 0 {
					empty++
				}
				got, err := inc.View().FoldTail(tail)
				if err != nil {
					t.Fatalf("FoldTail(edges[%d:%d]): %v", hi, hi+len(tail), err)
				}
				if !bytes.Equal(foldBytes(t, got), offline(edges[:hi+len(tail)], inc.RetiredEdges(), omega)) {
					t.Fatalf("trial %d omega %d: tail fold over edges[%d:%d] differs from ComputeApprox (chunks %d, retired %d)",
						trial, omega, inc.RetiredEdges(), hi+len(tail), inc.NumChunks(), inc.RetiredEdges())
				}
				lo = hi
			}
		}
	}
	if widened == 0 || retired == 0 || empty == 0 {
		t.Fatalf("cases not exercised: %d widening tails, %d retirements, %d empty tails", widened, retired, empty)
	}
}

// TestFoldTailValidation: a tail that is not strictly after the sealed
// chunks, not strictly ascending, or names a negative node is refused.
func TestFoldTailValidation(t *testing.T) {
	inc, err := NewIncrementalApprox(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 1, At: 5}}, 3); err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string][]graph.Interaction{
		"not after sealed": {{Src: 1, Dst: 2, At: 5}},
		"not ascending":    {{Src: 1, Dst: 2, At: 7}, {Src: 2, Dst: 0, At: 7}},
		"negative node":    {{Src: -1, Dst: 2, At: 7}},
	} {
		if _, err := inc.View().FoldTail(tail); err == nil {
			t.Errorf("%s: FoldTail accepted %v", name, tail)
		}
	}
}

// TestFoldCacheGrowNodes: the delta path must stay identical when new
// chunks widen the node range past the cached summaries' length.
func TestFoldCacheGrowNodes(t *testing.T) {
	inc, err := NewIncrementalApprox(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 1, At: 1}}, 2); err != nil {
		t.Fatal(err)
	}
	_ = inc.View().Fold() // cache covers 1 chunk over 2 nodes
	if err := inc.AppendChunk([]graph.Interaction{{Src: 1, Dst: 4, At: 3}, {Src: 4, Dst: 3, At: 5}}, 5); err != nil {
		t.Fatal(err)
	}
	l := graph.New(5)
	l.Add(0, 1, 1)
	l.Add(1, 4, 3)
	l.Add(4, 3, 5)
	if !bytes.Equal(foldBytes(t, inc.View().Fold()), foldBytes(t, mustApprox(t, l, 10, 4))) {
		t.Fatal("cached fold across node growth differs from offline scan")
	}
}

// TestSeedFoldCache: priming a fresh builder's cache from a decoded
// checkpoint (the recovery path) must make later folds byte-identical to
// both the offline scan and an unseeded fold.
func TestSeedFoldCache(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := randomLog(rng, 30, 400)
	const omega, prec = 50, 4
	edges := l.Interactions
	cut := len(edges) / 2

	build := func(upto int) *IncrementalApprox {
		inc, err := NewIncrementalApprox(omega, prec, l.NumNodes)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < upto; {
			hi := lo + 37
			if hi > upto {
				hi = upto
			}
			if err := inc.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		return inc
	}

	// Checkpoint the first half, round-trip it through the codec.
	first := build(cut)
	ckpt := foldBytes(t, first.View().Fold())
	decoded, err := ReadApproxSummaries(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}

	// "Recover": rebuild the same chunks, seed the cache, append the rest.
	second := build(cut)
	chunks := second.NumChunks()
	if err := second.SeedFoldCache(decoded, chunks); err != nil {
		t.Fatalf("SeedFoldCache: %v", err)
	}
	for lo := cut; lo < len(edges); {
		hi := lo + 37
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := second.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	want := foldBytes(t, mustApprox(t, l, omega, prec))
	if got := foldBytes(t, second.View().Fold()); !bytes.Equal(got, want) {
		t.Fatal("seeded fold differs from offline scan")
	}
	// And the seeded prefix itself must reproduce the checkpoint.
	third := build(cut)
	if err := third.SeedFoldCache(decoded, third.NumChunks()); err != nil {
		t.Fatal(err)
	}
	if got := foldBytes(t, third.View().Fold()); !bytes.Equal(got, ckpt) {
		t.Fatal("seeded refold of the covered prefix differs from the checkpoint")
	}
}

func TestSeedFoldCacheValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	l := randomLog(rng, 10, 60)
	inc := appendRandomChunks(t, rng, l, 20, 4)
	sum := inc.View().Fold()
	if err := inc.SeedFoldCache(nil, 1); err == nil {
		t.Error("nil summaries accepted")
	}
	bad := *sum
	bad.Omega = 999
	if err := inc.SeedFoldCache(&bad, inc.NumChunks()); err == nil {
		t.Error("omega mismatch accepted")
	}
	bad = *sum
	bad.Precision = 9
	if err := inc.SeedFoldCache(&bad, inc.NumChunks()); err == nil {
		t.Error("precision mismatch accepted")
	}
	if err := inc.SeedFoldCache(sum, 0); err == nil {
		t.Error("zero chunk count accepted")
	}
	if err := inc.SeedFoldCache(sum, inc.NumChunks()+1); err == nil {
		t.Error("chunk count beyond builder accepted")
	}
	if err := inc.SeedFoldCache(sum, inc.NumChunks()); err != nil {
		t.Errorf("valid seed rejected: %v", err)
	}
}

// TestAppendSealedChunk: sealing a chunk with precomputed locals (the
// sidecar recovery path) must behave exactly like AppendChunk.
func TestAppendSealedChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := randomLog(rng, 20, 200)
	const omega, prec = 30, 4
	edges := l.Interactions

	// Build once with AppendChunk to harvest the block-local sketches.
	donor, err := NewIncrementalApprox(omega, prec, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	for lo := 0; lo < len(edges); {
		hi := lo + 1 + rng.Intn(60)
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := donor.AppendChunk(edges[lo:hi], l.NumNodes); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, hi)
		lo = hi
	}

	recovered, err := NewIncrementalApprox(omega, prec, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	dv := donor.View()
	for i := 0; i < dv.NumChunks(); i++ {
		ce, cl := dv.Chunk(i)
		if err := recovered.AppendSealedChunk(ce, cl, len(cl)); err != nil {
			t.Fatalf("AppendSealedChunk %d: %v", i, err)
		}
	}
	if recovered.EdgeCount() != donor.EdgeCount() || recovered.LastAt() != donor.LastAt() {
		t.Fatalf("recovered state %d/%d, donor %d/%d",
			recovered.EdgeCount(), recovered.LastAt(), donor.EdgeCount(), donor.LastAt())
	}
	want := foldBytes(t, mustApprox(t, l, omega, prec))
	if got := foldBytes(t, recovered.View().Fold()); !bytes.Equal(got, want) {
		t.Fatal("fold over sealed chunks differs from offline scan")
	}

	// Validation: locals length and precision must match.
	fresh, _ := NewIncrementalApprox(omega, prec, l.NumNodes)
	ce, cl := dv.Chunk(0)
	if err := fresh.AppendSealedChunk(ce, cl[:len(cl)-1], len(cl)); err == nil {
		t.Error("short locals accepted")
	}
	wrong := make([]*vhll.Sketch, len(cl))
	copy(wrong, cl)
	wrong[0] = vhll.MustNew(prec + 1)
	if err := fresh.AppendSealedChunk(ce, wrong, len(cl)); err == nil {
		t.Error("wrong-precision local accepted")
	}
}

func TestAppendChunkValidation(t *testing.T) {
	inc, err := NewIncrementalApprox(10, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk(nil, 3); err == nil {
		t.Error("empty chunk accepted")
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 5, At: 1}}, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 1, At: 2}, {Src: 1, Dst: 2, At: 2}}, 3); err == nil {
		t.Error("tied timestamps accepted")
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 0, Dst: 1, At: 2}}, 3); err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 1, Dst: 2, At: 2}}, 3); err == nil {
		t.Error("chunk not after previous accepted")
	}
	if err := inc.AppendChunk([]graph.Interaction{{Src: 1, Dst: 2, At: 3}}, 2); err == nil {
		t.Error("shrinking node range accepted")
	}
	if _, err := NewIncrementalApprox(10, 99, 3); err == nil {
		t.Error("bad precision accepted")
	}
	if _, err := NewIncrementalApprox(0, 4, 3); err == nil {
		t.Error("zero omega accepted")
	}
}

// TestEmptyViewFold: a fold before any chunk yields empty summaries over
// the configured node range.
func TestEmptyViewFold(t *testing.T) {
	inc, err := NewIncrementalApprox(5, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := inc.View().Fold()
	if s.NumNodes() != 4 || s.EntryCount() != 0 {
		t.Fatalf("empty fold: %d nodes, %d entries", s.NumNodes(), s.EntryCount())
	}
}

// TestRetireFoldIdentity: after retiring the prefix below a horizon, the
// fold over the retained suffix must be byte-identical to the offline
// scan over exactly those edges — retirement sheds state without
// perturbing what remains, across random chunkings and horizons.
func TestRetireFoldIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		m := 40 + rng.Intn(300)
		l := randomLog(rng, n, m)
		const omega = 20
		inc := appendRandomChunks(t, rng, l, omega, 4)
		horizon := int64(1 + rng.Intn(m+10))
		chunks, edges := inc.Retire(horizon)
		if edges != inc.RetiredEdges() {
			t.Fatalf("trial %d: Retire reported %d edges, accounting says %d", trial, edges, inc.RetiredEdges())
		}
		if chunks != inc.FirstChunk() {
			t.Fatalf("trial %d: Retire reported %d chunks, base moved to %d", trial, chunks, inc.FirstChunk())
		}
		// Chunk-granular horizon: every retired edge is strictly below it,
		// and every interaction at or after it is still covered.
		retained := l.Interactions[inc.RetiredEdges():]
		for _, e := range l.Interactions[:inc.RetiredEdges()] {
			if int64(e.At) >= horizon {
				t.Fatalf("trial %d: retired edge at %d >= horizon %d", trial, e.At, horizon)
			}
		}
		if inc.RetainedEdges() == 0 {
			continue // nothing left to fold; the stream layer never folds an empty view
		}
		want := foldBytes(t, mustApprox(t, &graph.Log{NumNodes: l.NumNodes, Interactions: retained}, omega, 4))
		if got := foldBytes(t, inc.View().Fold()); !bytes.Equal(got, want) {
			t.Fatalf("trial %d horizon %d: fold after Retire differs from offline scan over the retained %d edges",
				trial, horizon, len(retained))
		}
		// Idempotent: the same horizon retires nothing further.
		if c, e := inc.Retire(horizon); c != 0 || e != 0 {
			t.Fatalf("trial %d: second Retire(%d) shed %d chunks / %d edges", trial, horizon, c, e)
		}
	}
}

// TestFoldFromIdentity: FoldFrom(k) is the offline scan over the chunk
// suffix [k, NumChunks) — the exact window-restricted fold at chunk
// granularity — and rejects indices outside the retained range.
func TestFoldFromIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	l := randomLog(rng, 20, 200)
	const omega = 30
	inc, err := NewIncrementalApprox(omega, 4, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 25
	for lo := 0; lo < len(l.Interactions); lo += chunk {
		hi := min(lo+chunk, len(l.Interactions))
		if err := inc.AppendChunk(l.Interactions[lo:hi], l.NumNodes); err != nil {
			t.Fatal(err)
		}
	}
	inc.Retire(int64(l.Interactions[60].At)) // move the base off zero
	v := inc.View()
	for from := v.FirstChunk(); from < v.NumChunks(); from++ {
		got, err := v.FoldFrom(from)
		if err != nil {
			t.Fatalf("FoldFrom(%d): %v", from, err)
		}
		suffix := &graph.Log{NumNodes: l.NumNodes, Interactions: l.Interactions[from*chunk:]}
		if !bytes.Equal(foldBytes(t, got), foldBytes(t, mustApprox(t, suffix, omega, 4))) {
			t.Fatalf("FoldFrom(%d) differs from offline scan over chunks [%d, %d)", from, from, v.NumChunks())
		}
	}
	for _, from := range []int{v.FirstChunk() - 1, v.NumChunks(), -1} {
		if _, err := v.FoldFrom(from); err == nil {
			t.Fatalf("FoldFrom(%d) accepted outside [%d, %d)", from, v.FirstChunk(), v.NumChunks())
		}
	}
}

// TestResumeAt: a fresh builder primed with ResumeAt and fed the retained
// chunks reproduces the retired builder's state — absolute indices, edge
// clocks, and fold bytes — and rejects being primed when non-empty.
func TestResumeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := randomLog(rng, 15, 150)
	const omega, chunk = 25, 30
	a, err := NewIncrementalApprox(omega, 4, l.NumNodes)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(l.Interactions); lo += chunk {
		if err := a.AppendChunk(l.Interactions[lo:min(lo+chunk, len(l.Interactions))], l.NumNodes); err != nil {
			t.Fatal(err)
		}
	}
	a.Retire(int64(l.Interactions[70].At))
	if a.FirstChunk() == 0 {
		t.Fatal("fixture retired nothing")
	}

	b, err := NewIncrementalApprox(omega, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ResumeAt(a.FirstChunk(), a.RetiredEdges()); err != nil {
		t.Fatal(err)
	}
	av := a.View()
	for c := av.FirstChunk(); c < av.NumChunks(); c++ {
		edges, _ := av.Chunk(c)
		if err := b.AppendChunk(edges, l.NumNodes); err != nil {
			t.Fatalf("resumed append of chunk %d: %v", c, err)
		}
	}
	if b.FirstChunk() != a.FirstChunk() || b.NumChunks() != a.NumChunks() ||
		b.EdgeCount() != a.EdgeCount() || b.RetiredEdges() != a.RetiredEdges() {
		t.Fatalf("resumed clocks: first=%d chunks=%d edges=%d retired=%d, want first=%d chunks=%d edges=%d retired=%d",
			b.FirstChunk(), b.NumChunks(), b.EdgeCount(), b.RetiredEdges(),
			a.FirstChunk(), a.NumChunks(), a.EdgeCount(), a.RetiredEdges())
	}
	if !bytes.Equal(foldBytes(t, b.View().Fold()), foldBytes(t, a.View().Fold())) {
		t.Fatal("resumed fold differs from the retired builder's fold")
	}

	if err := b.ResumeAt(0, 0); err == nil {
		t.Fatal("ResumeAt accepted on a non-empty builder")
	}
	fresh, err := NewIncrementalApprox(omega, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.ResumeAt(-1, 0); err == nil {
		t.Fatal("negative firstChunk accepted")
	}
}
