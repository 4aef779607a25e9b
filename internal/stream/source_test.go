package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
)

// TestParseEdge pins the one text-intake parser: node ids must fit
// graph.NodeID (int32) instead of wrapping, matching the WAL decoder.
func TestParseEdge(t *testing.T) {
	cases := []struct {
		line string
		want graph.Interaction
		ok   bool
	}{
		{"1 2 10", graph.Interaction{Src: 1, Dst: 2, At: 10}, true},
		{"\t7  9 -3 ", graph.Interaction{Src: 7, Dst: 9, At: -3}, true},
		{"2147483647 0 1", graph.Interaction{Src: 2147483647, Dst: 0, At: 1}, true},
		{"0 2147483647 1", graph.Interaction{Src: 0, Dst: 2147483647, At: 1}, true},
		// Wider than int32: used to wrap to Src 7 and to a negative id.
		{"4294967303 1 10", graph.Interaction{}, false},
		{"2147483648 1 10", graph.Interaction{}, false},
		{"1 2147483648 10", graph.Interaction{}, false},
		{"1 4294967303 10", graph.Interaction{}, false},
		{"-1 2 10", graph.Interaction{}, false},
		{"1 2", graph.Interaction{}, false},
		{"1 2 3 4", graph.Interaction{}, false},
		{"1 2 99999999999999999999", graph.Interaction{}, false},
	}
	for _, c := range cases {
		got, err := ParseEdge(c.line)
		if (err == nil) != c.ok {
			t.Errorf("ParseEdge(%q) error = %v, want ok=%v", c.line, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseEdge(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

// lines renders edges in the wire format, one "src dst time" line each.
func lines(edges []graph.Interaction) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%d %d %d\n", e.Src, e.Dst, e.At)
	}
	return b.String()
}

// sourceIngester starts an ingester for the source tests that publishes
// only on forced checkpoints, and returns it with the last published
// summaries' holder and its metrics.
func sourceIngester(t *testing.T) (*Ingester, *atomic.Pointer[core.ApproxSummaries], *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	published := new(atomic.Pointer[core.ApproxSummaries])
	in, err := New(Config{
		Dir: t.TempDir(), Omega: 30, Precision: 5,
		CheckpointEvery: -1, SyncEvery: -1, Registry: reg,
		Publish: func(s *core.ApproxSummaries) { published.Store(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = in.Close(context.Background()) })
	return in, published, reg
}

// checkIngested waits until want edges are accepted, checkpoints, and
// holds the published summaries to the offline scan of want and the
// parse-error count to malformed.
func checkIngested(t *testing.T, in *Ingester, published *atomic.Pointer[core.ApproxSummaries], reg *obs.Registry, want []graph.Interaction, malformed int64) {
	t.Helper()
	pollUntil(t, "accepted edges", func() bool { return in.Stats().Accepted >= int64(len(want)) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := in.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if got := in.Stats().Accepted; got != int64(len(want)) {
		t.Fatalf("accepted %d edges, want %d", got, len(want))
	}
	if got := reg.Snapshot()[MetricParseErrors]; got != malformed {
		t.Fatalf("%s = %v, want %d", MetricParseErrors, got, malformed)
	}
	if !bytes.Equal(summaryBytes(t, published.Load()), offlineBytes(t, want, 0, 30, 5)) {
		t.Fatal("published summaries differ from the offline scan of the valid lines")
	}
}

// TestServeTCP feeds edge lines to ServeTCP over two loopback
// connections, one after the other, with comments, blanks and malformed
// lines mixed in, and stops it by closing the listener.
func TestServeTCP(t *testing.T) {
	edges := testLog(rand.New(rand.NewSource(3)), 20, 300)
	in, published, reg := sourceIngester(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- in.ServeTCP(l) }()
	for i, part := range [][]graph.Interaction{edges[:100], edges[100:]} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, "# connection\n\n"+lines(part)+"not an edge\n"); err != nil {
			t.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		// The next connection's edges are later in time; let this one's
		// all arrive first so the stream stays in order.
		pollUntil(t, fmt.Sprintf("connection %d's edges", i), func() bool {
			return reg.Snapshot()[MetricParseErrors] == int64(i+1)
		})
	}
	checkIngested(t, in, published, reg, edges, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeTCP after the listener closed: %v", err)
	}
}

// TestTailFile appends to a followed file in pieces that split lines,
// and ends on a partial line: TailFile pushes only complete lines, and
// pushes the partial one once a later append completes it.
func TestTailFile(t *testing.T) {
	edges := testLog(rand.New(rand.NewSource(4)), 20, 200)
	in, published, reg := sourceIngester(t)
	path := filepath.Join(t.TempDir(), "feed.txt")
	ctx, cancel := context.WithCancel(context.Background())
	tailed := make(chan error, 1)
	go func() { tailed <- in.TailFile(ctx, path, true) }()

	body := "# feed\n" + lines(edges[:150]) + "\nbad line\r\n" + lines(edges[150:])
	cut := strings.LastIndexByte(body[:len(body)-1], '\n') + 3 // two bytes into the last line
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for lo := 0; lo < cut; lo += 997 {
		if _, err := f.WriteString(body[lo:min(lo+997, cut)]); err != nil {
			t.Fatal(err)
		}
	}
	checkIngested(t, in, published, reg, edges[:len(edges)-1], 1)
	if _, err := f.WriteString(body[cut:]); err != nil {
		t.Fatal(err)
	}
	checkIngested(t, in, published, reg, edges, 1)
	cancel()
	if err := <-tailed; !errors.Is(err, context.Canceled) {
		t.Fatalf("TailFile after cancel: %v", err)
	}
}
