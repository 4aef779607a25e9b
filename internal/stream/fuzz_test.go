package stream

import (
	"slices"
	"testing"

	"ipin/internal/graph"
)

// FuzzDecodeRecord: the WAL record decoder — which replays every edge a
// publish has served once a crash lands before the next checkpoint —
// either rejects its input or yields strictly time-ordered edges that
// round-trip through encodeRecord unchanged, and never panics.
func FuzzDecodeRecord(f *testing.F) {
	valid := encodeRecord([]graph.Interaction{
		{Src: 0, Dst: 1, At: -5}, {Src: 300, Dst: 2, At: 7}, {Src: 2, Dst: 2, At: 1 << 40},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // torn mid-edge
	// Six edge bytes admit at most len/3+1 = 3 edges: a count at the
	// bound passes the size check and must fail on the missing third.
	f.Add([]byte{3, 1, 2, 10, 3, 4, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var edges []graph.Interaction
		var lastAt int64
		if err := decodeRecord(payload, &edges, &lastAt); err != nil {
			return
		}
		for i := 1; i < len(edges); i++ {
			if edges[i].At <= edges[i-1].At {
				t.Fatalf("edge %d at %d not after %d", i, edges[i].At, edges[i-1].At)
			}
		}
		var again []graph.Interaction
		var againAt int64
		if err := decodeRecord(encodeRecord(edges), &again, &againAt); err != nil {
			t.Fatalf("re-decoding %d edges: %v", len(edges), err)
		}
		if !slices.Equal(edges, again) {
			t.Fatalf("round trip changed the edges: %v -> %v", edges, again)
		}
	})
}
