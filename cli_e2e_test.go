package ipin_test

// End-to-end tests of the command-line tools: build the real binaries and
// drive them the way a user would — generate a dataset, analyze it, save
// and reload summaries, and run a small experiment.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildOut  string // go build's output when it fails
	buildErr  error
)

// TestMain removes the CLI build directory once every test has run,
// whether or not the builds succeeded.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// buildCommands compiles the three CLIs once per test run.
func buildCommands(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "ipin-cli")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"gennet", "irs", "experiments"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr, buildOut = err, string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v (%s)", buildErr, buildOut)
	}
	return buildDir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIGennetAndIRS(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds are slow")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	netFile := filepath.Join(dir, "net.txt")

	out := run(t, filepath.Join(bins, "gennet"),
		"-dataset", "slashdot", "-scale", "200", "-out", netFile)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("gennet output: %s", out)
	}
	if fi, err := os.Stat(netFile); err != nil || fi.Size() == 0 {
		t.Fatalf("gennet produced no data: %v", err)
	}

	// Analyze: top-k plus a spread query over the first edge's endpoints.
	data, err := os.ReadFile(netFile)
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	out = run(t, filepath.Join(bins, "irs"),
		"-in", netFile, "-window", "10", "-topk", "3",
		"-spread", fields[0]+","+fields[1],
		"-channel", fields[0]+","+fields[1])
	for _, want := range []string{"top 3 influencers", "spread(", "channel "} {
		if !strings.Contains(out, want) {
			t.Fatalf("irs output missing %q:\n%s", want, out)
		}
	}

	// Save, then reload: the reported top-k must be identical.
	sumFile := filepath.Join(dir, "irs.bin")
	first := run(t, filepath.Join(bins, "irs"),
		"-in", netFile, "-window", "10", "-save", sumFile, "-topk", "3")
	second := run(t, filepath.Join(bins, "irs"),
		"-in", netFile, "-window", "10", "-load", sumFile, "-topk", "3")
	pick := func(s string) string {
		idx := strings.Index(s, "top 3 influencers")
		if idx < 0 {
			t.Fatalf("no top-k section:\n%s", s)
		}
		return s[idx:]
	}
	if pick(first) != pick(second) {
		t.Fatalf("save/load changed the ranking:\n%s\nvs\n%s", pick(first), pick(second))
	}

	// Exact mode works too.
	out = run(t, filepath.Join(bins, "irs"),
		"-in", netFile, "-window", "10", "-exact", "-celf", "-topk", "2")
	if !strings.Contains(out, "exact summaries") {
		t.Fatalf("exact mode output:\n%s", out)
	}
}

// TestCLICodecRoundTrip pins the IRX1 snapshot codec end to end through
// the CLI: computing with -save and re-running with -load must print
// identical query answers, for both summary kinds, including the
// degenerate encodings — a sink node whose sketch payload has length 0
// and a single-node log whose summaries are all empty.
func TestCLICodecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds are slow")
	}
	bins := buildCommands(t)
	irs := filepath.Join(bins, "irs")

	// queryLines keeps only the answer lines, dropping the compute/load
	// banter that legitimately differs between the two runs.
	queryLines := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "spread(") || strings.Contains(line, "influencers") ||
				strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "combined spread") {
				keep = append(keep, line)
			}
		}
		if len(keep) == 0 {
			t.Fatalf("no query answers in output:\n%s", out)
		}
		return strings.Join(keep, "\n")
	}

	cases := []struct {
		name    string
		content string
		seeds   string
	}{
		{"chain", "a b 100\nb c 200\nc d 5000\n", "a,b"},
		// b receives but never sends: its saved sketch has length 0.
		{"sink-empty-sketch", "a b 100\n", "b"},
		// One node, one self-interaction: every summary is empty.
		{"single-node", "a a 100\n", "a"},
	}
	for _, mode := range []string{"approx", "exact"} {
		for _, c := range cases {
			t.Run(mode+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				netFile := filepath.Join(dir, "net.txt")
				if err := os.WriteFile(netFile, []byte(c.content), 0o644); err != nil {
					t.Fatal(err)
				}
				sumFile := filepath.Join(dir, "irs.bin")
				args := []string{"-in", netFile, "-omega", "1000", "-topk", "1", "-spread", c.seeds}
				if mode == "exact" {
					args = append(args, "-exact")
				}
				first := run(t, irs, append(args, "-save", sumFile)...)
				if fi, err := os.Stat(sumFile); err != nil || fi.Size() == 0 {
					t.Fatalf("no summary file written: %v", err)
				}
				second := run(t, irs, append(args, "-load", sumFile)...)
				if queryLines(first) != queryLines(second) {
					t.Fatalf("answers changed across save/load:\n--- computed ---\n%s\n--- loaded ---\n%s",
						queryLines(first), queryLines(second))
				}
			})
		}
	}
}

func TestCLIExperimentsSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds are slow")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	out := run(t, filepath.Join(bins, "experiments"),
		"-exp", "table2", "-scale", "400", "-csv", dir)
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "enron") {
		t.Fatalf("experiments output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "table2.csv")); err != nil {
		t.Fatalf("table2.csv not written: %v", err)
	}
}

func TestCLIExperimentsWithRealFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI builds are slow")
	}
	bins := buildCommands(t)
	dir := t.TempDir()
	// Drop a "real" enron in place; table2 must pick up its exact counts.
	content := "u1 u2 1000\nu2 u3 2000\nu3 u1 3000\n"
	if err := os.WriteFile(filepath.Join(dir, "enron.txt"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, filepath.Join(bins, "experiments"),
		"-exp", "table2", "-scale", "400", "-files", dir)
	// The enron row must reflect the 3-node file, not the generator.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "enron") {
			if !strings.Contains(line, "3") {
				t.Fatalf("enron row not from file: %q", line)
			}
			return
		}
	}
	t.Fatalf("no enron row:\n%s", out)
}
