// Command irs computes Influence Reachability Sets over an interaction
// network and answers the queries of the paper: per-node influence sizes,
// influence-oracle spreads for a seed set, and top-k influencer selection.
//
// The input is the text format of internal/graph ("src dst time" per
// line). The window is given as a percentage of the time span (-window,
// the paper's convention) or in absolute ticks (-omega).
//
// Usage:
//
//	irs -in net.txt -window 10 -topk 10
//	irs -in net.txt -omega 86400 -exact -topk 5
//	irs -in net.txt -window 10 -spread alice,bob,carol
//	irs -in net.txt -window 10 -sizes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ipin/internal/cascade"
	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/swhll"
	"ipin/internal/temporal"
	"ipin/internal/vhll"
)

func main() {
	var (
		in          = flag.String("in", "", "input interaction log (required)")
		windowPct   = flag.Float64("window", 10, "window length as %% of the time span")
		omega       = flag.Int64("omega", 0, "window length in ticks (overrides -window)")
		exact       = flag.Bool("exact", false, "use the exact algorithm instead of the sketch")
		precision   = flag.Int("precision", core.DefaultPrecision, "sketch precision (β = 2^precision)")
		topk        = flag.Int("topk", 0, "select the top-k influencers")
		celf        = flag.Bool("celf", false, "use CELF lazy greedy for -topk")
		spread      = flag.String("spread", "", "comma-separated seed names: print their combined influence")
		sizes       = flag.Bool("sizes", false, "print every node's influence size, largest first")
		save        = flag.String("save", "", "write the computed summaries to this file")
		load        = flag.String("load", "", "load summaries from this file instead of computing them")
		channel     = flag.String("channel", "", "two comma-separated node names: print a witness information channel")
		progress    = flag.Bool("progress", false, "report phase progress periodically on stderr")
		metricsOut  = flag.String("metrics-out", "", "write final runtime metrics as JSON to this file")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for the scan, collapse, and selection phases (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	core.SetParallelism(*parallelism)
	// Telemetry is opt-in: without these flags every instrumented event
	// in the libraries below stays a free no-op.
	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		core.InstallMetrics(reg)
		vhll.InstallMetrics(reg)
		swhll.InstallMetrics(reg)
		cascade.InstallMetrics(reg)
		// Runtime series too, so the JSON dump records the process's heap
		// footprint and GC behavior next to the workload counters.
		obs.InstallRuntimeMetrics(reg)
	}
	if *progress {
		core.SetProgressSink(obs.TextSink(os.Stderr, "irs: "))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	l, table, err := graph.ReadLog(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if !l.HasDistinctTimes() {
		n := l.Detie()
		fmt.Fprintf(os.Stderr, "irs: separated %d tied timestamps\n", n)
	}
	w := *omega
	if w <= 0 {
		w = l.WindowFromPercent(*windowPct)
	}
	fmt.Printf("network: %d nodes, %d interactions, ω = %d ticks\n", l.NumNodes, l.Len(), w)

	var (
		oracle core.Oracle
		top    func(k int) []graph.NodeID
	)
	if *exact {
		var s *core.ExactSummaries
		if *load != "" {
			s = loadSummaries(*load, true).(*core.ExactSummaries)
			fmt.Printf("loaded exact summaries from %s (ω = %d)\n", *load, s.Omega)
		} else {
			s = core.ComputeExactParallel(l, w, *parallelism)
		}
		if *save != "" {
			saveSummaries(*save, s)
		}
		o := core.NewExactOracle(s)
		oracle, top = o, o.TopK
		if *celf {
			top = o.TopKCELF
		}
		fmt.Printf("exact summaries: %d entries, %d bytes\n", s.EntryCount(), s.MemoryBytes())
	} else {
		var s *core.ApproxSummaries
		if *load != "" {
			s = loadSummaries(*load, false).(*core.ApproxSummaries)
			fmt.Printf("loaded sketches from %s (ω = %d, β = %d)\n", *load, s.Omega, 1<<s.Precision)
		} else {
			var err error
			s, err = core.ComputeApproxParallel(l, w, *precision, *parallelism)
			if err != nil {
				fatal(err)
			}
		}
		if *save != "" {
			saveSummaries(*save, s)
		}
		o := core.NewApproxOracle(s)
		oracle, top = o, o.TopK
		if *celf {
			top = o.TopKCELF
		}
		fmt.Printf("sketches: β = %d, %d entries, %d bytes\n", 1<<s.Precision, s.EntryCount(), s.MemoryBytes())
	}

	if *sizes {
		printSizes(oracle, table)
	}
	if *channel != "" {
		printChannel(l, table, *channel, w)
	}
	if *spread != "" {
		seeds, err := parseSeeds(*spread, table)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("spread(%s) = %.1f\n", *spread, oracle.Spread(seeds))
	}
	if *topk > 0 {
		seeds := top(*topk)
		fmt.Printf("top %d influencers:\n", len(seeds))
		for i, u := range seeds {
			fmt.Printf("%3d. %-24s influence %.1f\n", i+1, table.Name(u), oracle.InfluenceSize(u))
		}
		fmt.Printf("combined spread: %.1f\n", oracle.Spread(seeds))
	}
	if *metricsOut != "" {
		writeMetrics(*metricsOut, reg)
	}
}

// writeMetrics dumps the final metric state as JSON, the shape the BENCH
// trajectory files collect across runs.
func writeMetrics(path string, reg *obs.Registry) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := reg.WriteJSON(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "irs: wrote metrics to %s\n", path)
}

func printSizes(oracle core.Oracle, table *graph.NodeTable) {
	n := oracle.NumNodes()
	order := make([]graph.NodeID, n)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		return oracle.InfluenceSize(order[i]) > oracle.InfluenceSize(order[j])
	})
	for _, u := range order {
		if s := oracle.InfluenceSize(u); s > 0 {
			fmt.Printf("%-24s %.1f\n", table.Name(u), s)
		}
	}
}

// printChannel exhibits a witness information channel between the two
// named nodes, or reports that none exists within the window.
func printChannel(l *graph.Log, table *graph.NodeTable, pair string, omega int64) {
	names := strings.Split(pair, ",")
	if len(names) != 2 {
		fatal(fmt.Errorf("-channel wants exactly two names, got %q", pair))
	}
	ids, err := parseSeeds(pair, table)
	if err != nil {
		fatal(err)
	}
	ch := temporal.FindChannel(l, ids[0], ids[1], omega)
	if ch == nil {
		fmt.Printf("no information channel %s→%s within ω\n", strings.TrimSpace(names[0]), strings.TrimSpace(names[1]))
		return
	}
	fmt.Printf("channel %s→%s (duration %d, ends %d):\n", strings.TrimSpace(names[0]), strings.TrimSpace(names[1]), ch.Duration(), ch.End())
	for _, e := range ch {
		fmt.Printf("  %s → %s @ %d\n", table.Name(e.Src), table.Name(e.Dst), e.At)
	}
}

func parseSeeds(csv string, table *graph.NodeTable) ([]graph.NodeID, error) {
	var seeds []graph.NodeID
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		id, ok := table.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown node %q", name)
		}
		seeds = append(seeds, id)
	}
	return seeds, nil
}

// loadSummaries reads previously saved summaries; exact selects the kind.
func loadSummaries(path string, exact bool) interface{} {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if exact {
		s, err := core.ReadExactSummaries(f)
		if err != nil {
			fatal(err)
		}
		return s
	}
	s, err := core.ReadApproxSummaries(f)
	if err != nil {
		fatal(err)
	}
	return s
}

// saveSummaries writes summaries (either kind) to path.
func saveSummaries(path string, s io.WriterTo) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	n, err := s.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "irs: saved %d summary bytes to %s\n", n, path)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "irs: %v\n", err)
	os.Exit(1)
}
