package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipin"
	"ipin/internal/cluster"
	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/serve"
	"ipin/internal/stream"
	"ipin/internal/trace"
)

// streamSpec describes one streaming workload.
type streamSpec struct {
	name     string
	shards   int           // 1 = single node
	ladder   bool          // step the feed rate up until a rung fails
	queries  bool          // run the dashboard client beside the feed
	rate     float64       // fixed feed rate, edges/s (warm-up, live, ladder reference)
	r0, step float64       // first rung rate and ratio between rungs (ladder)
	interval time.Duration // checkpoint interval
	warmup   time.Duration // fed at the starting rate before measuring
}

// The streaming feed: a uniform interaction stream over feedNodes
// nodes, about ticksPerEdge ticks apart, generated in one block from the
// seed and cycled with a time shift. ω and the retained window are
// fixed in edge-equivalents of ticks, so the retained state — and with
// it checkpoint cost — does not depend on the feed rate.
const (
	feedNodes    = 5_000
	feedBlock    = 1 << 18
	ticksPerEdge = 4
	omegaEdges   = 8192
	retainEdges  = 32768
	chunkEdges   = 16384           // the ingester's default sealed-chunk size
	feedTopK     = 10              // live top-k profile size, as livecascade
	cacheSize    = 1024            // livecascade's result cache
	objective    = 2 * time.Second // the ROADMAP's freshness objective
	gateQueries  = 3000
	windowPasses = 12   // offline passes over the feed's first windowEdges edges
	windowSets   = 2000 // battery seed sets per window pass
	windowEdges  = 2 * retainEdges
	maxLadder    = 120 * time.Second
	ladderRef    = 3 * time.Second // the ladder's fixed-rate reference stretch
)

// The dashboard client's traffic. Its shape is cmd/benchserve's
// dashboard: dashSlots query paths visited in a fixed cycle, each a
// /spread over dashSeeds seeds, every 16th a /topk. No recorded query
// log exists, so the rest is assumed, not measured:
//   - a /topk slot asks for the live top-k size, and only when the
//     generation changed since the last /topk (the dashboard recomputes
//     its top-k once per generation); otherwise the slot is passed over;
//   - one slot in 16 each, the share benchserve gives /topk, for
//     /influence on a random node and for /spreadwindow over the slot's
//     seeds at the feed's current horizon;
//   - a queryPause after each reply, so the client sends at most about
//     1k queries/s.
const (
	dashSlots     = 64
	dashSeeds     = 32
	dashTopkEvery = 16
	dashInfluence = 3 // slot mod 16 of /influence
	dashWindow    = 7 // slot mod 16 of /spreadwindow
	queryPause    = time.Millisecond
)

// The streaming workloads' fixed rate: a checkpoint must finish well
// inside the one-second interval with the dashboard beside it, so that
// freshness is about half an interval plus checkpoint time. At 60k
// edges/s (about half the ingest ladder's capacity on a 2-vCPU VM) a
// checkpoint took about 600 ms and in one run of five checkpoints
// outgrew the interval, doubling freshness; at 20k edges/s one takes
// about 180 ms on a single node.
var (
	ingestSpec  = streamSpec{name: "ingest", shards: 1, ladder: true, rate: 20_000, r0: 50_000, step: 1.08, interval: time.Second, warmup: time.Second}
	liveSpec    = streamSpec{name: "live", shards: 1, queries: true, rate: 20_000, interval: time.Second, warmup: 1500 * time.Millisecond}
	shardedSpec = streamSpec{name: "live-sharded", shards: 2, queries: true, rate: 20_000, interval: time.Second, warmup: 1500 * time.Millisecond}
)

// feed is the generated stream: edge i is block[i mod len] shifted by
// (i div len) block spans, so timestamps stay strictly increasing.
type feed struct {
	block []graph.Interaction
	shift graph.Time
}

func newFeed(seed uint64) (*feed, error) {
	l, err := gen.Generate(gen.Config{
		Name: "feed", Model: gen.ModelUniform, Nodes: feedNodes,
		Interactions: feedBlock, SpanTicks: feedBlock * ticksPerEdge, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	l.Detie()
	b := l.Interactions
	return &feed{block: b, shift: b[len(b)-1].At - b[0].At + ticksPerEdge}, nil
}

func (f *feed) edge(i int) graph.Interaction {
	e := f.block[i%len(f.block)]
	e.At += graph.Time(i/len(f.block)) * f.shift
	return e
}

// pipe is one streaming stack under test plus what the benchmark
// observes of it.
type pipe struct {
	dir   string
	omega int64
	t0    time.Time // all observation times are offsets from here

	ing *stream.Ingester // single node
	srv *serve.Server
	cl  *cluster.Ingester // sharded
	h   http.Handler

	// Traced runs only.
	reg  *obs.Registry
	jr   *trace.Journal
	jbuf *lockedBuffer
	tr   *trace.Tracer
	sp   *spans

	mu       sync.Mutex
	pubs     [][]pub // per shard, in publish order
	metas    []ckptMeta
	ckptSize int64
	pushed   []atomic.Int64 // per shard
	last     atomic.Pointer[core.ApproxSummaries]
	pubSeq   atomic.Int64

	genSkewMax uint64 // sharded, traced: largest generation-vector spread seen
}

// ckptMeta is the part of checkpoint.meta.json the benchmark reads.
type ckptMeta struct {
	Edges        int64   `json:"edges"`
	RetiredEdges int64   `json:"retired_edges"`
	FoldSeconds  float64 `json:"fold_seconds"`
	WriteSeconds float64 `json:"write_seconds"`
}

func readMeta(dir string) (ckptMeta, error) {
	var m ckptMeta
	b, err := os.ReadFile(filepath.Join(dir, stream.CheckpointMetaName))
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(b, &m)
	return m, err
}

// lockedBuffer is the journal sink: the journal writes under its own
// lock, the benchmark reads after the pipeline stops.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// newPipe builds the stack in a fresh directory, configured like
// examples/livecascade: WAL on local disk, interval checkpoints, Retain,
// live top-k profiles, a cached query server (single node) or a
// scatter-gather frontend (sharded).
func newPipe(spec streamSpec, dir string, traced bool) (*pipe, error) {
	p := &pipe{dir: dir, omega: omegaEdges * ticksPerEdge, t0: time.Now()}
	p.pubs = make([][]pub, spec.shards)
	p.pushed = make([]atomic.Int64, spec.shards)
	if traced {
		p.reg = ipin.NewMetricsRegistry()
		ipin.InstallMetrics(p.reg)
		p.jbuf = &lockedBuffer{}
		p.jr = trace.NewJournal(trace.JournalConfig{Sink: p.jbuf, Registry: p.reg})
		p.sp = newSpans(p.t0)
		if spec.shards == 1 {
			// livecascade disables the tracer for clusters: only the single
			// node's generation swap stamps serve-visible.
			p.tr = trace.New(trace.Config{SampleEvery: 1024, Registry: p.reg})
		}
	}
	cfg := stream.Config{
		Omega:           p.omega,
		NumNodes:        feedNodes,
		CheckpointEvery: spec.interval,
		ProfileWindow:   p.omega,
		TopK:            feedTopK,
		Retain:          retainEdges * ticksPerEdge,
		Registry:        p.reg,
		Journal:         p.jr,
	}
	if spec.shards > 1 {
		cl, err := cluster.New(cluster.Config{Shards: spec.shards, Dir: dir, Stream: cfg})
		if err != nil {
			return nil, err
		}
		p.cl = cl
		p.h = cluster.NewFrontend(cl.Gather()).Handler()
		return p, nil
	}
	p.srv = serve.New(serve.Config{CacheSize: cacheSize, Registry: p.reg, Tracer: p.tr, Journal: p.jr})
	cfg.Dir = dir
	cfg.Tracer = p.tr
	cfg.Publish = p.publish
	ing, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	p.ing = ing
	p.h = p.srv.Handler()
	return p, nil
}

// publish is the single-node Publish hook: it installs the checkpoint
// in the query server and records when it became queryable and what it
// covers (from the metadata the checkpoint wrote just before).
func (p *pipe) publish(sum *core.ApproxSummaries) {
	id := p.pubSeq.Add(1)
	hook := p.sp.begin()
	load := p.sp.begin()
	p.srv.LoadApprox(sum)
	at := time.Since(p.t0)
	p.sp.end("serve.load", id, "serve.publish_hook", load)
	meta, err := readMeta(p.dir)
	covered := meta.Edges
	if err != nil {
		covered = -1 // the gate reports it
	}
	p.mu.Lock()
	p.pubs[0] = append(p.pubs[0], pub{At: at, Covered: covered, Pushed: p.pushed[0].Load()})
	if p.sp != nil {
		p.metas = append(p.metas, meta)
		if fi, err := os.Stat(filepath.Join(p.dir, stream.CheckpointName)); err == nil {
			p.ckptSize += fi.Size()
		}
	}
	p.mu.Unlock()
	p.last.Store(sum)
	p.sp.end("serve.publish_hook", id, "", hook)
}

// ready reports whether queries can be answered: the single node has
// loaded a checkpoint, or some shard has published one.
func (p *pipe) ready() bool {
	if p.cl == nil {
		return p.last.Load() != nil
	}
	return p.cl.Gather().View().Ready()
}

// generation identifies the state queries see: the single node's
// publish count, or the cluster generation.
func (p *pipe) generation() int64 {
	if p.cl == nil {
		return p.pubSeq.Load()
	}
	return int64(p.cl.Gather().Generation())
}

func (p *pipe) push(e graph.Interaction) error {
	if p.cl != nil {
		return p.cl.Push(e)
	}
	return p.ing.Push(e)
}

func (p *pipe) shardOf(u graph.NodeID) int {
	if p.cl != nil {
		return p.cl.Route(u)
	}
	return 0
}

func (p *pipe) checkpoint(ctx context.Context) error {
	if p.cl != nil {
		return p.cl.Checkpoint(ctx)
	}
	return p.ing.Checkpoint(ctx)
}

func (p *pipe) close(ctx context.Context) error {
	if p.cl != nil {
		return p.cl.Close(ctx)
	}
	return p.ing.Close(ctx)
}

func (p *pipe) shardDir(s int) string {
	if p.cl != nil {
		return filepath.Join(p.dir, fmt.Sprintf("shard-%03d", s))
	}
	return p.dir
}

// poll records publishes the feeder can only observe from outside — a
// shard's covered-edge counter moving — in sharded mode.
func (p *pipe) poll() {
	if p.cl == nil {
		return
	}
	at := time.Since(p.t0)
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := range p.pubs {
		c := p.cl.Shard(s).Stats().CoveredEdges
		if n := len(p.pubs[s]); c > 0 && (n == 0 || p.pubs[s][n-1].Covered < c) {
			p.pubs[s] = append(p.pubs[s], pub{At: at, Covered: c, Pushed: p.pushed[s].Load()})
			if p.sp != nil {
				// The shard may already have moved on; the metadata read is
				// at most one checkpoint newer than the publish observed.
				if meta, err := readMeta(p.shardDir(s)); err == nil {
					p.metas = append(p.metas, meta)
				}
				if fi, err := os.Stat(filepath.Join(p.shardDir(s), stream.CheckpointName)); err == nil {
					p.ckptSize += fi.Size()
				}
			}
		}
	}
	if p.sp != nil {
		gens := p.cl.Gather().Generations()
		lo, hi := gens[0], gens[0]
		for _, g := range gens {
			lo, hi = min(lo, g), max(hi, g)
		}
		p.genSkewMax = max(p.genSkewMax, hi-lo)
	}
}

// pubsSnapshot copies shard s's publishes from index from on.
func (p *pipe) pubsSnapshot(s, from int) []pub {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from >= len(p.pubs[s]) {
		return nil
	}
	return append([]pub(nil), p.pubs[s][from:]...)
}

// substream is what the gates need of one shard's pushed edges once the
// final checkpoint landed: how many there were, what the checkpoint
// claims, and the global indices of the edges it retains. Keeping only
// those keeps the benchmark's own records out of the heap measurement.
type substream struct {
	pushed  int
	meta    ckptMeta
	metaErr error
	tail    []int32 // global indices of substream edges [meta.RetiredEdges, pushed)
}

func newSubstream(dir string, edges []int32) substream {
	sub := substream{pushed: len(edges)}
	sub.meta, sub.metaErr = readMeta(dir)
	from := int(min(max(sub.meta.RetiredEdges, 0), int64(len(edges))))
	sub.tail = append([]int32(nil), edges[from:]...)
	return sub
}

// feeder drives the open-loop schedule and turns publishes into
// per-edge freshness as they arrive.
type feeder struct {
	p       *pipe
	f       *feed
	segs    []segment
	base    time.Duration // feed start, from p.t0
	sent    int           // edges pushed
	fresh   []float32     // per edge, ms; NaN until covered
	late    []float32     // per edge send − due, ms
	wake    []float64     // sleep overshoot, ms
	fr      []freshener
	seen    []int // publishes consumed per shard
	allPubs [][]pub
	lastAt  *atomic.Int64 // allocated apart, so the client can outlive the feeder
	pushNs  int64
	fails   int64
	backlog int64 // max pushed − covered
}

func (fd *feeder) due(i int) time.Duration {
	for k := len(fd.segs) - 1; k >= 0; k-- {
		if fd.segs[k].Contains(i) {
			return fd.segs[k].Due(i)
		}
	}
	return 0
}

func (fd *feeder) grow(n int) {
	for len(fd.fresh) < n {
		fd.fresh = append(fd.fresh, float32(math.NaN()))
		fd.late = append(fd.late, 0)
	}
}

// absorb consumes new publishes into per-edge freshness.
func (fd *feeder) absorb() {
	fd.p.poll()
	var covered int64
	for s := range fd.fr {
		for _, pb := range fd.p.pubsSnapshot(s, fd.seen[s]) {
			fd.fr[s].cover(pb, fd.due, fd.fresh)
			fd.allPubs[s] = append(fd.allPubs[s], pb)
			fd.seen[s]++
		}
		if n := len(fd.allPubs[s]); n > 0 {
			covered += fd.allPubs[s][n-1].Covered
		}
	}
	if b := int64(fd.sent) - covered; b > fd.backlog {
		fd.backlog = b
	}
}

// sleepUntil sleeps until offset t from p.t0, recording the overshoot.
func (fd *feeder) sleepUntil(t time.Duration) {
	d := t - time.Since(fd.p.t0)
	if d <= 0 {
		return
	}
	time.Sleep(d)
	fd.wake = append(fd.wake, float64(time.Since(fd.p.t0)-t)/float64(time.Millisecond))
}

// run pushes every edge of segment seg on schedule.
func (fd *feeder) run(seg segment) {
	fd.segs = append(fd.segs, seg)
	end := seg.First + seg.N
	fd.grow(end)
	for fd.sent < end {
		now := time.Since(fd.p.t0)
		if d := fd.due(fd.sent); d > now {
			fd.absorb()
			// Wake at the next due time, or within 2ms to keep observing.
			fd.sleepUntil(min(d, time.Since(fd.p.t0)+2*time.Millisecond))
			continue
		}
		for n := 0; fd.sent < end && n < 256; n++ {
			i := fd.sent
			due := fd.due(i)
			send := time.Since(fd.p.t0)
			if due > send {
				break
			}
			fd.late[i] = float32(lateness(send, due)) / float32(time.Millisecond)
			fd.pushOne(i)
		}
	}
	fd.absorb()
}

// pushOne pushes edge i, timing the call.
func (fd *feeder) pushOne(i int) {
	e := fd.f.edge(i)
	s := fd.p.shardOf(e.Src)
	send := time.Since(fd.p.t0)
	err := fd.p.push(e)
	took := time.Since(fd.p.t0) - send
	fd.pushNs += int64(took)
	if took >= 100*time.Microsecond {
		// Only pushes that blocked get a span; the rest add to pushNs.
		name := "stream.push"
		if fd.p.cl != nil {
			name = "cluster.push"
		}
		fd.p.sp.add(span{Name: name, ID: int64(i), Start: int64(send), End: int64(send + took)})
	}
	if err != nil {
		fd.fails++
	} else {
		fd.p.pushed[s].Add(1)
		fd.fr[s].edges = append(fd.fr[s].edges, int32(i))
	}
	fd.lastAt.Store(int64(e.At))
	fd.sent++
}

// waitCovered waits up to limit for every pushed edge to be covered.
func (fd *feeder) waitCovered(limit time.Duration) {
	stop := time.Now().Add(limit)
	for time.Now().Before(stop) {
		fd.absorb()
		if fd.sent == 0 || !isNaN(fd.fresh[fd.sent-1]) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freshSlice returns the freshness of edges [from, to); an edge never
// covered counts as fresh at the end of the wait, a lower bound.
func (fd *feeder) freshSlice(from, to int) []float64 {
	out := make([]float64, 0, to-from)
	now := time.Since(fd.p.t0)
	for i := from; i < to; i++ {
		f := float64(fd.fresh[i])
		if isNaN(fd.fresh[i]) {
			f = float64(now-fd.due(i)) / float64(time.Millisecond)
		}
		out = append(out, f)
	}
	return out
}

// client is the closed-loop dashboard: it sends one query, waits for the
// reply, pauses, and repeats, over a fixed cycle of query paths.
type client struct {
	p       *pipe
	rng     *rand.Rand
	slot    int                  // next slot of the cycle
	topkGen int64                // generation of the last /topk, -1 before it
	sets    [][]graph.NodeID     // per slot, the seed set of /spread and /spreadwindow
	lastAt  *atomic.Int64        // the feed's current horizon
	lat     map[string][]float64 // per route, ms
	all     []float64
	wake    []float64
	sent    int64
	failed  int64
	nonOK   map[int]int
	queryID int64
}

func newClient(p *pipe, seed uint64, lastAt *atomic.Int64) *client {
	c := &client{
		p: p, rng: rand.New(rand.NewPCG(seed, 0xc11e47)), lastAt: lastAt,
		topkGen: -1, lat: map[string][]float64{}, nonOK: map[int]int{},
	}
	// cmd/benchserve's seed arithmetic, offset by the workload seed.
	off := int(seed % feedNodes)
	for i := 0; i < dashSlots; i++ {
		set := make([]graph.NodeID, dashSeeds)
		for j := range set {
			set[j] = graph.NodeID((off + i*7919 + j*104729) % feedNodes)
		}
		c.sets = append(c.sets, set)
	}
	return c
}

// next returns the next query's route and URL and advances the cycle.
func (c *client) next() (string, string) {
	i := c.slot
	c.slot = (c.slot + 1) % dashSlots
	switch i % dashTopkEvery {
	case dashTopkEvery - 1:
		if g := c.p.generation(); g != c.topkGen {
			c.topkGen = g
			return "topk", "/topk?k=" + strconv.Itoa(feedTopK)
		}
		return c.next()
	case dashInfluence:
		return "influence", "/influence?node=" + strconv.Itoa(c.rng.IntN(feedNodes))
	case dashWindow:
		return "spreadwindow", "/spreadwindow?seeds=" + joinNodes(c.sets[i]) + "&at=" + strconv.FormatInt(c.lastAt.Load(), 10)
	default:
		return "spread", "/spread?seeds=" + joinNodes(c.sets[i])
	}
}

func joinNodes(s []graph.NodeID) string {
	parts := make([]string, len(s))
	for i, u := range s {
		parts[i] = strconv.Itoa(int(u))
	}
	return strings.Join(parts, ",")
}

// do sends one query through the in-process handler and times it.
func (c *client) do(route, url string, spanPrefix string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	id := c.queryID
	c.queryID++
	s0 := c.p.sp.begin()
	t := time.Now()
	c.p.h.ServeHTTP(rec, req)
	d := float64(time.Since(t)) / float64(time.Millisecond)
	c.p.sp.end(spanPrefix+"."+route, id, "", s0)
	c.lat[route] = append(c.lat[route], d)
	c.all = append(c.all, d)
	c.sent++
	if rec.Code != http.StatusOK {
		c.failed++
		c.nonOK[rec.Code]++
	}
	return rec.Code, rec.Body.Bytes()
}

// loop runs until stop closes. The dashboard opens once the first
// checkpoint is queryable.
func (c *client) loop(stop <-chan struct{}, prefix string) {
	for !c.p.ready() {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		route, url := c.next()
		c.do(route, url, prefix)
		planned := time.Now().Add(queryPause)
		time.Sleep(queryPause)
		c.wake = append(c.wake, float64(time.Since(planned))/float64(time.Millisecond))
	}
}

// runLive runs one streaming workload.
func runLive(o opts, spec streamSpec) (*measurement, error) {
	m := newMeasurement()
	var p *pipe
	var f *feed
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			// Only the last set-up is measured further.
			if err := p.close(context.Background()); err != nil {
				return nil, err
			}
			os.RemoveAll(p.dir)
		}
		runtime.GC() // each set-up starts from a collected heap
		h := sampleHost()
		dir, err := os.MkdirTemp(o.work, spec.name+"-")
		if err != nil {
			return nil, err
		}
		if f, err = newFeed(o.seed); err != nil {
			return nil, err
		}
		if p, err = newPipe(spec, dir, o.traced); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, unstolen(h, sampleHost()))
	}
	if err := windowPipelines(m, o, p, f, spec.queries); err != nil {
		_ = p.close(context.Background())
		return nil, err
	}
	// Stop the stack on every path; the normal path closes it before the
	// gates.
	closed := false
	defer func() {
		if !closed {
			_ = p.close(context.Background())
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fd := &feeder{p: p, f: f, fr: make([]freshener, spec.shards), seen: make([]int, spec.shards), allPubs: make([][]pub, spec.shards), lastAt: new(atomic.Int64)}
	fd.base = time.Since(p.t0)
	measure := time.Duration(o.seconds * float64(time.Second))
	warm := newSegment(nil, spec.rate, spec.warmup)
	warm.Start = fd.base
	fd.run(warm)

	var cl *client
	var clientDone chan struct{}
	stop := make(chan struct{})
	prefix := "serve"
	if spec.shards > 1 {
		prefix = "cluster"
	}
	if spec.queries {
		cl = newClient(p, o.seed, fd.lastAt)
		clientDone = make(chan struct{})
		go func() {
			defer close(clientDone)
			cl.loop(stop, prefix)
		}()
	}

	// measured is the fixed-rate segment whose freshness is reported.
	var measured segment
	sustained, rungsPassed := 0.0, 0
	refRSS := 0.0 // ladder: peak RSS when the reference stretch ended
	if spec.ladder {
		// A reference stretch at the fixed rate, then rungs from r0 up.
		// Freshness is reported at the reference rate: the top rungs sit at
		// whatever edge of capacity each run found.
		measured = newSegment(&warm, spec.rate, ladderRef)
		fd.run(measured)
		refRSS = peakRSS()
		rungDur := measure / 10
		prev := measured
		var rungs []segment
		var verdicts []string
		judged := 0
		ladderEnd := time.Since(p.t0) + maxLadder
	ladder:
		for time.Since(p.t0) < ladderEnd {
			rate := spec.r0
			if len(rungs) > 0 {
				rate = prev.Rate * spec.step
			}
			seg := newSegment(&prev, rate, rungDur)
			rungs = append(rungs, seg)
			fd.run(seg)
			prev = seg
			for judged < len(rungs) {
				v, why := judgeRung(rungs[judged], fd.fresh, fd.allPubs[0], spec.interval, objective, time.Since(p.t0))
				if v == pending {
					break
				}
				verdicts = append(verdicts, fmt.Sprintf("%.0f/s: %s", rungs[judged].Rate, why))
				if v == failed {
					break ladder
				}
				sustained = rungs[judged].Rate
				rungsPassed++
				judged++
			}
		}
		// Edges of rungs fed after the failing one are not judged.
		fd.waitCovered(objective)
		m.info["rungs_passed"] = rungsPassed
		m.info["rungs"] = verdicts
		m.info["rung_seconds"] = rungDur.Seconds()
	} else {
		measured = newSegment(&warm, spec.rate, measure)
		fd.run(measured)
		fd.waitCovered(objective + spec.interval)
	}
	if cl != nil {
		close(stop)
		<-clientDone
	}
	feedEnd := time.Since(p.t0)
	// Peak memory of the timed phase, before the settle below pushes
	// flat out: the fixed-rate feed and dashboard are what a user runs.
	timedRSS := peakRSS()

	fresh := summarize(fd.freshSlice(measured.First, measured.First+measured.N))
	if !spec.ladder {
		// Edges made queryable per second: the schedule's span, shifted by
		// the typical time to queryable.
		span := float64(measured.Due(measured.First+measured.N-1)-measured.Due(measured.First))/float64(time.Second) + fresh.P50/1000
		sustained, rungsPassed = float64(measured.N)/span, 1
	}
	m.set("sustained_edges_per_s", sustained, rungsPassed)
	if err := m.setDist("freshness", fresh); err != nil {
		return nil, err
	}
	late := make([]float64, fd.sent)
	for i := range late {
		late[i] = float64(fd.late[i])
	}
	m.late["feeder_send_minus_due"] = summarize(late)
	m.late["feeder_wake_overshoot"] = summarize(fd.wake)
	if d := summarize(fd.wake); d.HasP99 && d.P99 > 50 {
		m.invalid = fmt.Sprintf("feeder wake overshoot p99 %.1f ms", d.P99)
	}
	m.attempted += int64(fd.sent)
	m.failed += fd.fails

	// Final forced checkpoints. The first makes everything accepted
	// queryable and durable. Then a settle: a retained window's worth of
	// edges (plus two chunks) pushed flat out, so the state left in memory
	// no longer depends on where the timed phase stopped, and a checkpoint
	// after each of two pushes — retirement only sheds chunks that were
	// already durable when it triggered. The second push (half a chunk)
	// puts the retention horizon well inside a chunk, clear of the jitter
	// of edges per tick.
	for _, n := range []int{0, retainEdges + 2*chunkEdges, chunkEdges / 2} {
		fd.grow(fd.sent + n)
		for end := fd.sent + n; fd.sent < end; {
			fd.pushOne(fd.sent)
		}
		m.attempted++
		if err := p.checkpoint(ctx); err != nil {
			m.failed++
			m.gate("final_checkpoint", false, "%v", err)
		}
	}
	routeLat := map[string]dist{} // per query route, traced layers
	if cl != nil {
		m.attempted += cl.sent
		m.failed += cl.failed
		// The tail percentiles follow CPU steal on a shared virtual
		// machine (README.md), so they are reported in the detail only.
		q := summarize(cl.all)
		if !q.HasP99 {
			return nil, fmt.Errorf("%d queries cannot support a p99", q.N)
		}
		m.set("query_p50_ms", q.P50, q.N)
		m.late["client_wake_overshoot"] = summarize(cl.wake)
		if d := summarize(cl.wake); d.HasP99 && d.P99 > 50 {
			m.invalid += fmt.Sprintf(" client wake overshoot p99 %.1f ms", d.P99)
		}
		m.info["query_status_non_200"] = cl.nonOK
		qs := append([]float64(nil), cl.all...)
		sort.Float64s(qs)
		m.info["query_quantiles_ms"] = map[string]float64{"p90": qs[rankIndex(len(qs), 0.9)], "p95": qs[rankIndex(len(qs), 0.95)], "p98": qs[rankIndex(len(qs), 0.98)], "p99": qs[rankIndex(len(qs), 0.99)], "p995": qs[rankIndex(len(qs), 0.995)]}
		m.info["queries"] = cl.sent
		for _, r := range routes {
			routeLat[r] = summarize(cl.lat[r])
		}
	}
	pushed := fd.sent
	subs := make([]substream, spec.shards)
	for s := range subs {
		subs[s] = newSubstream(p.shardDir(s), fd.fr[s].edges)
	}
	pubCounts := make([]int, spec.shards)
	for s := range fd.allPubs {
		pubCounts[s] = len(fd.allPubs[s])
	}
	m.info["edges_pushed"] = pushed
	m.info["publishes"] = pubCounts
	m.info["feed_seconds"] = (feedEnd - fd.base).Seconds()
	m.info["backlog_edges_max"] = fd.backlog
	pushWait := float64(fd.pushNs) / 1e9
	backlog := fd.backlog
	m.info["push_wait_s"] = pushWait

	// Memory, with the stack still referenced and the benchmark's own
	// feed, per-edge and per-query records released.
	fd, f, cl = nil, nil, nil
	m.set("heap_live_bytes", heapLive(), 1)
	if spec.ladder {
		// Memory at the fixed reference rate. The rungs are left out: how
		// much memory they reach follows how far each run climbs, and the
		// failing rung's backlog grows until the ladder stops.
		m.set("peak_rss_bytes", refRSS, 1)
	} else {
		m.set("peak_rss_bytes", timedRSS, 1)
	}

	if o.traced {
		m.spans = p.sp.snapshot()
		liveLayers(m, p, routeLat, spec, pushWait, backlog, pushed)
	}
	// Closing the stack after the forced checkpoint writes nothing new.
	m.attempted++
	closed = true
	if err := p.close(ctx); err != nil {
		m.failed++
		m.gate("close", false, "%v", err)
	}
	var err error
	if f, err = newFeed(o.seed); err != nil {
		return nil, err
	}
	if err := liveGates(m, o, p, f, subs, pushed); err != nil {
		return nil, err
	}
	m.set("ok_ratio", 1-float64(m.failed)/float64(m.attempted), int(m.attempted))
	return m, nil
}
