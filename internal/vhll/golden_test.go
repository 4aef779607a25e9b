package vhll

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipin/internal/hll"
)

// The representation-identity suite: deterministic random streams are
// driven through the public API and every observable output — VHL1 codec
// bytes, Estimate/EstimateWindow/EstimateBefore, collapsed HLL bytes,
// entry counts — is compared against golden files recorded at the pinned
// pre-refactor commit (the cells [][]Entry layout). The flat-arena layout
// must reproduce every byte; a mismatch means the refactor changed
// observable state, not just its in-memory shape.
//
// Regenerate (only legitimate when the FORMAT of the golden file changes,
// never to paper over an identity break):
//
//	go test ./internal/vhll -run TestGoldenRepresentationIdentity -update-golden
//
// The switch-point streams (switchCases) live in a second golden file,
// recorded the same way with the dense-only cell index that preceded the
// sparse one (-run TestGoldenSwitchStreams), so the first file's cases
// and bytes stay exactly as recorded.
var updateGolden = flag.Bool("update-golden", false, "rewrite the representation-identity golden files")

// goldenCase derives one deterministic operation stream from its seed.
type goldenCase struct {
	Name      string `json:"name"`
	Precision int    `json:"precision"`
	Ops       int    `json:"ops"`
	Seed      int64  `json:"seed"`
	// Mode selects the stream shape: "reverse" (IRS-style descending
	// timestamps), "forward" (swhll-style ascending, fed negated),
	// "adversarial" (crafted cell/rank collisions incl. max ranks),
	// "prune" (reverse with interleaved Prune calls),
	// "dense" (small precision, enough distinct items to leave sparse()),
	// "switch" (a universe just past the cell-index switch point, pruned
	// back to a few cells every 64 ops, beside a sparse merge operand).
	Mode string `json:"mode"`
}

// goldenOut is everything observable about the final state of one case.
type goldenOut struct {
	SketchHex         string `json:"sketch_hex"`
	EntryCount        int    `json:"entry_count"`
	Estimate          string `json:"estimate"`        // float64 bits, hex
	EstimateWindow    string `json:"estimate_window"` // at recorded anchor
	EstimateBefore    string `json:"estimate_before"`
	CollapseHex       string `json:"collapse_hex"`
	CollapseBeforeHex string `json:"collapse_before_hex"`
	CollapseWindowHex string `json:"collapse_window_hex"`
	MergedHex         string `json:"merged_hex"`         // Merge(other) result
	MergeWindowedHex  string `json:"merge_windowed_hex"` // MergeWindow(other) result
	CloneHex          string `json:"clone_hex"`
}

var goldenCases = []goldenCase{
	{Name: "reverse-small", Precision: 4, Ops: 200, Seed: 1, Mode: "reverse"},
	{Name: "reverse-default", Precision: 9, Ops: 5000, Seed: 2, Mode: "reverse"},
	{Name: "forward-mirrored", Precision: 9, Ops: 3000, Seed: 3, Mode: "forward"},
	{Name: "adversarial-collisions", Precision: 4, Ops: 1500, Seed: 4, Mode: "adversarial"},
	{Name: "prune-interleaved", Precision: 6, Ops: 4000, Seed: 5, Mode: "prune"},
	{Name: "dense-exit-sparse", Precision: 4, Ops: 8000, Seed: 6, Mode: "dense"},
	{Name: "reverse-ties", Precision: 5, Ops: 2500, Seed: 7, Mode: "adversarial"},
}

// switchCases cross the sparse/dense switch point (32 populated cells)
// upward and back down through Prune many times; the short one leaves its
// merge operand sparse.
var switchCases = []goldenCase{
	{Name: "switch-prune", Precision: 9, Ops: 3000, Seed: 8, Mode: "switch"},
	{Name: "switch-sparse-merge", Precision: 9, Ops: 700, Seed: 9, Mode: "switch"},
	{Name: "switch-wide", Precision: 11, Ops: 2000, Seed: 10, Mode: "switch"},
}

// goldenHash builds a hash landing in cell with rank under precision p,
// mirroring mkHash but tolerant of the max-rank case (all-zero rest).
func goldenHash(p int, cell uint32, rank uint8) uint64 {
	h := uint64(cell) << (64 - p)
	maxRank := uint8(64 - p + 1)
	if rank > maxRank {
		rank = maxRank
	}
	if rank < maxRank {
		h |= uint64(1) << (64 - int(rank) - p)
	}
	return h
}

// goldenStep, when set, observes the sketch after every op of a case.
var goldenStep func(s *Sketch)

// runGoldenCase drives the case's op stream and captures outputs.
func runGoldenCase(t *testing.T, gc goldenCase) goldenOut {
	t.Helper()
	rng := rand.New(rand.NewSource(gc.Seed))
	s := MustNew(gc.Precision)
	other := MustNew(gc.Precision)

	const span = int64(1 << 20)
	cur := span
	minAt, maxAt := span, int64(0)
	add := func(dst *Sketch, h uint64, at int64) {
		dst.AddHash(h, at)
		if at < minAt {
			minAt = at
		}
		if at > maxAt {
			maxAt = at
		}
	}
	for i := 0; i < gc.Ops; i++ {
		// Timestamps: mostly strictly decreasing, sometimes repeated,
		// sometimes jumping far back.
		switch rng.Intn(10) {
		case 0: // repeat the current timestamp
		case 1:
			cur -= int64(rng.Intn(1000)) + 1
		default:
			cur--
		}
		var h uint64
		switch gc.Mode {
		case "adversarial":
			// Crafted collisions: few cells, clustered ranks, max-rank runs.
			cell := uint32(rng.Intn(4))
			rank := uint8(rng.Intn(6) + 1)
			if rng.Intn(20) == 0 {
				rank = uint8(64 - gc.Precision + 1) // max rank
			}
			h = goldenHash(gc.Precision, cell, rank)
		case "dense":
			h = hll.Hash64(uint64(rng.Intn(1 << 14)))
		case "switch":
			h = hll.Hash64(uint64(rng.Intn(48)))
		default:
			h = hll.Hash64(uint64(rng.Intn(4096)))
		}
		if gc.Mode == "forward" {
			// Forward stream fed mirrored, as swhll does.
			add(s, h, -(span - cur))
		} else {
			add(s, h, cur)
		}
		if gc.Mode == "switch" {
			if rng.Intn(40) == 0 {
				add(other, hll.Hash64(uint64(rng.Intn(4096))), cur)
			}
			if i%64 == 63 {
				s.Prune(cur, 4)
			}
		} else if rng.Intn(3) == 0 {
			add(other, hll.Hash64(uint64(rng.Intn(4096))), cur)
		}
		if gc.Mode == "prune" && i%500 == 499 {
			s.Prune(cur, span/8)
		}
		if goldenStep != nil {
			goldenStep(s)
		}
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatalf("%s: invariant after ops: %v", gc.Name, err)
	}

	anchor := minAt + (maxAt-minAt)/3
	window := (maxAt-minAt)/2 + 1
	out := goldenOut{
		EntryCount:     s.EntryCount(),
		Estimate:       f64hex(s.Estimate()),
		EstimateWindow: f64hex(s.EstimateWindow(anchor, window)),
		EstimateBefore: f64hex(s.EstimateBefore(anchor + window)),
	}
	out.SketchHex = mustHex(t, s)
	out.CollapseHex = mustHexHLL(t, s.Collapse())
	out.CollapseBeforeHex = mustHexHLL(t, s.CollapseBefore(anchor+window))
	out.CollapseWindowHex = mustHexHLL(t, s.CollapseWindow(anchor, window))
	out.CloneHex = mustHex(t, s.Clone())

	merged := s.Clone()
	if err := merged.Merge(other); err != nil {
		t.Fatalf("%s: merge: %v", gc.Name, err)
	}
	if err := merged.CheckInvariant(); err != nil {
		t.Fatalf("%s: invariant after merge: %v", gc.Name, err)
	}
	out.MergedHex = mustHex(t, merged)

	windowed := s.Clone()
	if err := windowed.MergeWindow(other, anchor, window); err != nil {
		t.Fatalf("%s: merge window: %v", gc.Name, err)
	}
	if err := windowed.CheckInvariant(); err != nil {
		t.Fatalf("%s: invariant after merge window: %v", gc.Name, err)
	}
	out.MergeWindowedHex = mustHex(t, windowed)
	return out
}

func mustHex(t *testing.T, s *Sketch) string {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the codec while we are here: decode must accept
	// its own output and re-encode identically.
	var back Sketch
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("codec round-trip not byte-identical")
	}
	return hex.EncodeToString(data)
}

func mustHexHLL(t *testing.T, s *hll.Sketch) string {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(data)
}

func f64hex(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

func TestGoldenRepresentationIdentity(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden_streams.json"), goldenCases)
}

func TestGoldenSwitchStreams(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "golden_switch_streams.json"), switchCases)
}

// checkGolden runs cases against the golden file at path, or rewrites
// the file under -update-golden.
func checkGolden(t *testing.T, path string, cases []goldenCase) {
	type entry struct {
		Case goldenCase `json:"case"`
		Out  goldenOut  `json:"out"`
	}
	if *updateGolden {
		var entries []entry
		for _, gc := range cases {
			entries = append(entries, entry{Case: gc, Out: runGoldenCase(t, gc)})
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(entries))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update-golden at the pinned pre-refactor commit): %v", err)
	}
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cases) {
		t.Fatalf("golden file has %d cases, test defines %d", len(entries), len(cases))
	}
	for i, e := range entries {
		e := e
		t.Run(e.Case.Name, func(t *testing.T) {
			if cases[i] != e.Case {
				t.Fatalf("case definition drifted from golden file: %+v vs %+v", cases[i], e.Case)
			}
			got := runGoldenCase(t, e.Case)
			if got != e.Out {
				t.Errorf("representation identity broken:\n got %+v\nwant %+v", got, e.Out)
			}
		})
	}
}
