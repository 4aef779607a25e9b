package stream

import (
	"testing"

	"ipin/internal/graph"
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
