// Command ipinbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks that the program's outputs are
// correct, and prints every metric by name with its unit.
//
//	bash benchmark/run.sh --workload live --seed 1 --seconds 15 --trace 0
//
// Workloads: batch (the paper's offline pipeline), ingest (capacity
// ladder), live (paced feed beside a query client), live-sharded (the
// same through a 2-shard cluster). With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a run that enables the program's registry,
// journal and tracer and records the benchmark's spans. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. README.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"batch_approx_s", "s"},
	{"batch_exact_s", "s"},
	{"sustained_edges_per_s", "edges/s"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"heap_live_bytes", "bytes"},
	{"peak_rss_bytes", "bytes"},
	{"ok_ratio", "ratio"},
}

// routes are the query routes the dashboard client mixes.
var routes = []string{"spread", "influence", "spreadwindow", "topk"}

// stageNames are internal/trace's pipeline stages past accept.
var stageNames = []string{
	"reorder_emit", "wal_append", "wal_fsync", "chunk_seal",
	"fold", "checkpoint_write", "publish", "serve_visible",
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer a workload does not exercise reports 0.
var perLayer = func() []metricSpec {
	l := []metricSpec{
		{"core.scan_approx_s", "s"},
		{"core.collapse_s", "s"},
		{"core.select_approx_s", "s"},
		{"core.spread_us_p50", "us"},
		{"core.scan_exact_s", "s"},
		{"core.select_exact_s", "s"},
		{"core.spread_exact_us_p50", "us"},
		{"core.exact_entries", "count"},
		{"vhll.entries", "count"},
		{"vhll.payload_bytes", "bytes"},
		{"vhll.resident_bytes", "bytes"},
		{"stream.push_wait_s", "s"},
		{"stream.backlog_edges_max", "edges"},
		{"stream.checkpoint_ms_p50", "ms"},
		{"stream.checkpoint_ms_p99", "ms"},
		{"stream.chunk_persist_ms_p50", "ms"},
		{"stream.fold_ms_p50", "ms"},
		{"stream.checkpoint_write_ms_p50", "ms"},
		{"stream.skip_ratio", "ratio"},
		{"stream.disk_bytes_per_edge", "bytes/edge"},
		{"stream.sketch_bytes", "bytes"},
	}
	for _, s := range stageNames {
		l = append(l, metricSpec{"stream.stage." + s + "_ms_p50", "ms"})
	}
	l = append(l,
		metricSpec{"serve.load_ms_p50", "ms"},
		metricSpec{"serve.cache_hit_ratio", "ratio"},
		metricSpec{"serve.shed", "count"},
	)
	for _, r := range routes {
		l = append(l, metricSpec{"serve." + r + "_ms_p50", "ms"}, metricSpec{"serve." + r + "_ms_p99", "ms"})
	}
	l = append(l,
		metricSpec{"cluster.push_wait_s", "s"},
		metricSpec{"cluster.shard_skew", "ratio"},
		metricSpec{"cluster.generation_skew_max", "count"},
		metricSpec{"cluster.checkpoint_ms_p50", "ms"},
	)
	for _, r := range routes {
		l = append(l, metricSpec{"cluster." + r + "_ms_p50", "ms"}, metricSpec{"cluster." + r + "_ms_p99", "ms"})
	}
	l = append(l,
		metricSpec{"cluster.merge_builds", "count"},
		metricSpec{"bench.publish_hook_self_ms_p50", "ms"},
	)
	for _, m := range endToEnd {
		if m.name != "ok_ratio" {
			l = append(l, metricSpec{"trace.overhead." + m.name, "ratio"})
		}
	}
	return l
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*measurement, error){
	"batch":        runBatch,
	"ingest":       func(o opts) (*measurement, error) { return runLive(o, ingestSpec) },
	"live":         func(o opts) (*measurement, error) { return runLive(o, liveSpec) },
	"live-sharded": func(o opts) (*measurement, error) { return runLive(o, shardedSpec) },
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	cpu0     [2]int64 // cpuTimes at process start
	seconds  float64
	traced   bool   // enable the program's registry/journal/tracer and record spans
	work     string // per-run state directory, inside the checkout
}

// gate is one correctness check's outcome.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// measurement is what one pass of a workload produced.
type measurement struct {
	setup     []float64          // seconds per set-up
	e2e       map[string]float64 // end-to-end values by metric name
	samples   map[string]int     // sample count behind each end-to-end value
	layer     map[string]float64 // per-layer values (traced passes)
	attempted int64
	failed    int64
	gates     []gate
	late      map[string]dist // generator lateness, ms
	invalid   string          // non-empty when a generator fell behind
	spans     []span
	info      map[string]any // report-only detail
}

func newMeasurement() *measurement {
	return &measurement{
		e2e:     map[string]float64{},
		samples: map[string]int{},
		layer:   map[string]float64{},
		late:    map[string]dist{},
		info:    map[string]any{},
	}
}

// set records an end-to-end value with its sample count.
func (m *measurement) set(name string, v float64, n int) {
	m.e2e[name] = v
	m.samples[name] = n
}

// setDist records a p50/p99 pair; the p99 must be supported.
func (m *measurement) setDist(prefix string, d dist) error {
	if !d.HasP99 {
		return fmt.Errorf("%s: %d samples cannot support a p99", prefix, d.N)
	}
	m.set(prefix+"_p50_ms", d.P50, d.N)
	m.set(prefix+"_p99_ms", d.P99, d.N)
	return nil
}

// gate records a correctness check.
func (m *measurement) gate(name string, ok bool, format string, args ...any) {
	m.gates = append(m.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every gate passed.
func (m *measurement) correct() bool {
	for _, g := range m.gates {
		if !g.OK {
			return false
		}
	}
	return len(m.gates) > 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	o := opts{cpu0: cpuTimes()}
	var seed int64
	flag.StringVar(&o.workload, "workload", "", "workload to run: batch, ingest, live, live-sharded")
	flag.Int64Var(&seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the timed phase measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.seed = uint64(seed)
	o.traced = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "ipinbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ipinbench:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	runner, ok := workloads[o.workload]
	if !ok || !validName(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !validName(m.name) {
				return fmt.Errorf("invalid metric name %q", m.name)
			}
		}
	}
	// State lives under the checkout's build directory, one directory per
	// process, removed on exit.
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	o.work, err = os.MkdirTemp(base, "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	runtime.GOMAXPROCS(runtime.NumCPU())

	var plain, traced *measurement
	if o.traced {
		// The untraced pass gives the reference the tracing overhead is
		// set against; per-layer numbers come from the traced pass only.
		po := o
		po.traced = false
		if plain, err = runner(po); err != nil {
			return err
		}
		if traced, err = runner(o); err != nil {
			return err
		}
	} else if plain, err = runner(o); err != nil {
		return err
	}
	m := plain
	if traced != nil {
		m = traced
	}
	m.set("setup_s", median(m.setup), len(m.setup))
	if traced != nil {
		plain.set("setup_s", median(plain.setup), len(plain.setup))
		for _, e := range endToEnd {
			if e.name != "ok_ratio" && plain.e2e[e.name] != 0 {
				m.layer["trace.overhead."+e.name] = m.e2e[e.name] / plain.e2e[e.name]
			}
		}
		if err := writeSpans(filepath.Join(base, "spans-"+o.workload+".jsonl"), m.spans); err != nil {
			return err
		}
	}
	res := result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	if traced != nil {
		res.Correct = res.Correct && plain.correct()
		res.Attempted += plain.attempted
		res.Failed += plain.failed
	}
	list := endToEnd
	values := m.e2e
	if o.traced {
		list, values = perLayer, m.layer
	}
	for _, spec := range list {
		res.Metrics[spec.name] = metricOut{Value: values[spec.name], Unit: spec.unit}
	}
	if err := printReport(o, m, plain, traced); err != nil {
		return err
	}
	for _, x := range []*measurement{plain, traced} {
		if x != nil && x.invalid != "" {
			return fmt.Errorf("invalid run, generator fell behind: %s", x.invalid)
		}
	}
	for _, spec := range endToEnd {
		if v := plain.e2e[spec.name]; v == 0 {
			return fmt.Errorf("end-to-end metric %s measured 0", spec.name)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("a correctness gate failed")
	}
	return nil
}

// printReport prints the human-facing record of the run: environment
// stamp, every end-to-end metric with unit and sample count, generator
// lateness, gates, and workload detail. It precedes the result line.
func printReport(o opts, m, plain, traced *measurement) error {
	type metricLine struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	e2e := map[string]metricLine{}
	for _, spec := range endToEnd {
		e2e[spec.name] = metricLine{m.e2e[spec.name], spec.unit, m.samples[spec.name]}
	}
	rep := map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"traced":      o.traced,
		"environment": environment(o.work, o.cpu0),
		"end_to_end":  e2e,
		"error_ratio": float64(m.failed) / float64(max(m.attempted, 1)),
		"attempted":   m.attempted,
		"failed":      m.failed,
		"lateness_ms": m.late,
		"valid":       m.invalid == "",
		"gates":       m.gates,
		"detail":      m.info,
	}
	if m.invalid != "" {
		rep["invalid"] = m.invalid
	}
	if traced != nil {
		layer := map[string]float64{}
		for k, v := range m.layer {
			layer[k] = v
		}
		rep["per_layer"] = layer
		untraced := map[string]float64{}
		for k, v := range plain.e2e {
			untraced[k] = v
		}
		rep["untraced_end_to_end"] = untraced
	}
	b, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	// One readable line per end-to-end metric.
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := e2e[n]
		fmt.Printf("%-24s %14s %-8s n=%d\n", n, strconv.FormatFloat(l.Value, 'g', 6, 64), l.Unit, l.Samples)
	}
	return nil
}
