package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"

	"ipin/internal/cluster"
	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/serve"
	"ipin/internal/stream"
	"ipin/internal/trace"
)

// journalDurations returns the duration_ms of every journal event of
// the given type.
func journalDurations(jsonl, typ string) []float64 {
	var out []float64
	sc := bufio.NewScanner(strings.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev trace.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == typ {
			out = append(out, ev.DurationMs)
		}
	}
	return out
}

// counter reads an integer metric from a registry snapshot.
func counter(snap map[string]any, name string) float64 {
	if v, ok := snap[name].(int64); ok {
		return float64(v)
	}
	return 0
}

// p99Layer returns d's p99, or 0 with the name noted when the sample
// cannot support one.
func p99Layer(m *measurement, name string, d dist) float64 {
	if d.HasP99 {
		return d.P99
	}
	if d.N > 0 {
		l, _ := m.info["per_layer_p99_unsupported"].([]string)
		m.info["per_layer_p99_unsupported"] = append(l, name)
	}
	return 0
}

// liveLayers fills the stream, serve and cluster per-layer metrics of a
// traced streaming run from the benchmark's spans, the program's
// registry, journal, checkpoint metadata and tracer.
func liveLayers(m *measurement, p *pipe, routeLat map[string]dist, spec streamSpec, pushWait float64, backlog int64, pushed int) {
	snap := p.reg.Snapshot()
	jl := p.jbuf.String()
	ckpt := summarize(journalDurations(jl, trace.EventCheckpoint))
	m.layer["stream.backlog_edges_max"] = float64(backlog)
	m.layer["stream.checkpoint_ms_p50"] = ckpt.P50
	m.layer["stream.checkpoint_ms_p99"] = p99Layer(m, "stream.checkpoint_ms_p99", ckpt)
	m.layer["stream.chunk_persist_ms_p50"] = median(journalDurations(jl, trace.EventChunkPersist))
	p.mu.Lock()
	var fold, write []float64
	for _, mt := range p.metas {
		fold = append(fold, mt.FoldSeconds*1000)
		write = append(write, mt.WriteSeconds*1000)
	}
	ckptBytes := float64(p.ckptSize)
	p.mu.Unlock()
	m.layer["stream.fold_ms_p50"] = median(fold)
	m.layer["stream.checkpoint_write_ms_p50"] = median(write)
	skips, done := counter(snap, stream.MetricCheckpointSkip), counter(snap, stream.MetricCheckpoints)
	if skips+done > 0 {
		m.layer["stream.skip_ratio"] = skips / (skips + done)
	}
	if pushed > 0 {
		m.layer["stream.disk_bytes_per_edge"] = (counter(snap, stream.MetricWALBytes) + counter(snap, stream.MetricChunkFileBytes) + ckptBytes) / float64(pushed)
	}
	m.layer["stream.sketch_bytes"] = counter(snap, stream.MetricSketchBytes)
	if p.tr != nil {
		for i, name := range stageNames {
			m.layer["stream.stage."+name+"_ms_p50"] = obs.Quantile(p.tr.StageSnapshot(trace.Stage(i+1)), 0.5) * 1000
		}
	}

	prefix := "serve"
	if p.cl != nil {
		prefix = "cluster"
		m.layer["cluster.push_wait_s"] = pushWait
		var routed []float64
		for s := 0; s < spec.shards; s++ {
			routed = append(routed, counter(snap, fmt.Sprintf("%s{shard=\"%d\"}", cluster.MetricShardEdges, s)))
		}
		mx, sum := 0.0, 0.0
		for _, r := range routed {
			mx, sum = max(mx, r), sum+r
		}
		if sum > 0 {
			m.layer["cluster.shard_skew"] = mx / (sum / float64(len(routed)))
		}
		m.layer["cluster.generation_skew_max"] = float64(p.genSkewMax)
		m.layer["cluster.checkpoint_ms_p50"] = ckpt.P50
		m.layer["cluster.merge_builds"] = counter(snap, cluster.MetricMergeBuilds)
		if merged, err := p.cl.Gather().Merged(p.cl.Gather().View()); err == nil {
			layerSummaries(m, merged, nil)
		}
	} else {
		m.layer["stream.push_wait_s"] = pushWait
		list := p.sp.snapshot()
		m.layer["serve.load_ms_p50"] = median(durations(list, "serve.load"))
		m.layer["bench.publish_hook_self_ms_p50"] = median(selfTimes(list, "serve.publish_hook"))
		hits, misses := counter(snap, serve.MetricCacheHits), counter(snap, serve.MetricCacheMisses)
		if hits+misses > 0 {
			m.layer["serve.cache_hit_ratio"] = hits / (hits + misses)
		}
		m.layer["serve.shed"] = counter(snap, serve.MetricShed)
		layerSummaries(m, p.last.Load(), nil)
	}
	if spec.queries {
		for _, r := range routes {
			d := routeLat[r]
			m.layer[prefix+"."+r+"_ms_p50"] = d.P50
			m.layer[prefix+"."+r+"_ms_p99"] = p99Layer(m, prefix+"."+r+"_ms_p99", d)
		}
	}
}

// windowPipelines times the paper's offline pipelines over the feed's
// first windowEdges edges: the streaming workloads' batch_approx_s and
// batch_exact_s (and, without a dashboard, their query figure). They run
// after set-up, before the feed starts, in a process that has done
// nothing else, so every run times them in the same state. The scans
// run on one worker, as the stream layer's fold does: a parallel scan
// waits at its join for whichever worker the hypervisor stalled, which
// the unstolen correction cannot see, and on these short passes that
// made the figure follow the host.
func windowPipelines(m *measurement, o opts, p *pipe, f *feed, queried bool) error {
	window := &graph.Log{NumNodes: feedNodes}
	for i := 0; i < windowEdges; i++ {
		window.Interactions = append(window.Interactions, f.edge(i))
	}
	battery := seedSets(o.seed, feedNodes, windowSets, 1, 10)
	var approxS, exactS, stolen, scanA, coll, selA, scanE, selE, p50, spreadA, spreadE []float64
	var r *offline
	for k := 0; k < windowPasses; k++ {
		// Start both pipelines from a collected heap, so no pass inherits
		// another's garbage.
		runtime.GC()
		id := int64(k)
		h0, pass := sampleHost(), p.sp.begin()
		var err error
		r, err = approxBuild(window, p.omega, 1, p.sp, id)
		m.attempted++
		if err != nil {
			return err
		}
		approxQuery(r, battery, p.sp, id)
		p.sp.end("batch.approx_pass", id, "", pass)
		approxS = append(approxS, unstolen(h0, sampleHost()))
		runtime.GC()
		h1, pass := sampleHost(), p.sp.begin()
		exactPass(r, window, p.omega, 1, battery, p.sp, id)
		m.attempted++
		h2 := sampleHost()
		p.sp.end("batch.exact_pass", id, "", pass)
		exactS = append(exactS, unstolen(h1, h2))
		stolen = append(stolen, stolenShare(h0, h2))
		scanA = append(scanA, r.scanA.Seconds())
		coll = append(coll, r.collapse.Seconds())
		selA = append(selA, r.selectA.Seconds())
		scanE = append(scanE, r.scanE.Seconds())
		selE = append(selE, r.selectE.Seconds())
		p50 = append(p50, median(r.spreadA))
		spreadA = append(spreadA, r.spreadA...)
		spreadE = append(spreadE, r.spreadE...)
	}
	m.set("batch_approx_s", quietMedian(approxS, stolen), len(approxS))
	m.set("batch_exact_s", quietMedian(exactS, stolen), len(exactS))
	m.info["window_approx_s"] = approxS
	m.info["window_exact_s"] = exactS
	m.info["window_stolen_share"] = stolen
	if !queried {
		// No dashboard ran beside the feed: as in batch, the query figure
		// is the in-process oracle's spread queries, here on the window.
		m.set("query_p50_ms", quietMedian(p50, stolen), len(spreadA))
	}
	if o.traced {
		m.layer["core.scan_approx_s"] = median(scanA)
		m.layer["core.collapse_s"] = median(coll)
		m.layer["core.select_approx_s"] = median(selA)
		m.layer["core.spread_us_p50"] = median(spreadA) * 1000
		m.layer["core.scan_exact_s"] = median(scanE)
		m.layer["core.select_exact_s"] = median(selE)
		m.layer["core.spread_exact_us_p50"] = median(spreadE) * 1000
		m.layer["core.exact_entries"] = float64(r.exact.EntryCount())
	}
	runtime.GC()
	return nil
}

// liveGates checks a streaming run after its timed phase. Every shard's
// final checkpoint must cover every edge pushed to it and be
// byte-identical to the offline approx scan over the retained suffix
// its metadata claims; on a single node, query bodies must then match a
// query server loaded with those offline summaries.
func liveGates(m *measurement, o opts, p *pipe, f *feed, subs []substream, pushed int) error {
	var offlineSum *core.ApproxSummaries
	for s, sub := range subs {
		dir := p.shardDir(s)
		if sub.metaErr != nil {
			m.gate(fmt.Sprintf("shard%d_meta", s), false, "%v", sub.metaErr)
			continue
		}
		meta := sub.meta
		m.gate(fmt.Sprintf("shard%d_covers_all_pushed", s), meta.Edges == int64(sub.pushed),
			"checkpoint covers %d of %d edges pushed", meta.Edges, sub.pushed)
		if meta.Edges != int64(sub.pushed) || meta.RetiredEdges > meta.Edges {
			continue
		}
		suffix := &graph.Log{NumNodes: feedNodes}
		for _, g := range sub.tail {
			suffix.Interactions = append(suffix.Interactions, f.edge(int(g)))
		}
		sum, err := core.ComputeApprox(suffix, p.omega, core.DefaultPrecision)
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if _, err := sum.WriteTo(&want); err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(dir, stream.CheckpointName))
		if err != nil {
			return err
		}
		m.gate(fmt.Sprintf("shard%d_checkpoint_identical_to_offline", s), bytes.Equal(got, want.Bytes()),
			"%d checkpoint bytes vs %d offline bytes over %d retained edges", len(got), want.Len(), suffix.Len())
		m.info[fmt.Sprintf("shard%d_retained_edges", s)] = suffix.Len()
		offlineSum = sum
	}
	if p.srv == nil || offlineSum == nil {
		return nil
	}
	// Query identity on the single node: the live server against one
	// loaded with the offline summaries, over the dashboard's route mix.
	ref := serve.New(serve.Config{CacheSize: cacheSize})
	ref.LoadApprox(offlineSum)
	var lastAt atomic.Int64
	horizon := int64(f.edge(pushed - 1).At)
	live := newClient(p, o.seed^0x6a7e, &lastAt)
	refc := newClient(&pipe{h: ref.Handler()}, o.seed^0x6a7e, &lastAt)
	diff := 0
	for i := 0; i < gateQueries; i++ {
		// A moving horizon keeps /spreadwindow missing, as under a feed.
		lastAt.Store(horizon - int64(i))
		route, url := live.next()
		refc.next() // keep the twin client's draws aligned
		code, body := live.do(route, url, "gate")
		rcode, rbody := refc.do(route, url, "gate")
		if code != rcode || !bytes.Equal(body, rbody) {
			diff++
		}
	}
	m.gate("queries_identical_to_offline_server", diff == 0, "%d of %d query bodies differ", diff, gateQueries)
	m.attempted += live.sent
	m.failed += live.failed
	return nil
}
