// Livecascade wires the live ingestion subsystem to the influence
// oracle: interaction edges stream in over HTTP while spread queries are
// answered from the most recent checkpoint — the "influence dashboard
// over a live feed" deployment the streaming layer exists for.
//
// The pipeline inside one process:
//
//	POST /ingest ──▶ Ingester (reorder → WAL → sealed chunks)
//	                   │ interval / forced checkpoints
//	                   ▼
//	            fold → checkpoint.irx → Publish
//	                   ▼
//	            QueryServer (atomic generation swap)
//	                   ▲
//	GET /spread, /topk, /influence ... answered here
//
// Queries never block on ingestion: they read the last published
// generation, and each checkpoint swaps in atomically underneath them.
// An edge becomes queryable within one checkpoint interval of arriving
// (or immediately after POST /admin/checkpoint), and the served state is
// byte-identical to running the offline one-pass scan over the same
// edges — the property the companion test enforces.
//
// By default the process feeds itself a generated information cascade at
// -eps edges per second, so a single command gives a watchable demo:
//
//	go run ./examples/livecascade -eps 2000
//	curl 'localhost:8080/spread?seeds=0,1,2'   # grows as the cascade streams in
//	curl 'localhost:8080/stream/stats'
//
// Disable the self-feed with -eps 0 and pipe a feed in instead:
//
//	gennet -model cascade -stream -skew 16 | while read line; do
//	  curl -s -XPOST --data "$line" localhost:8080/ingest >/dev/null; done
//
// Endpoints: the full query surface of examples/oracleserver (minus
// /channel), plus
//
//	POST /ingest            "src dst time" lines, any number per body
//	POST /admin/checkpoint  force a checkpoint + publish, synchronously
//	GET  /stream/stats      ingestion counters and the served generation
//	GET  /stream/topk       the live top-k influencer view, refreshed at
//	                        every checkpoint from the sliding profile
//	                        window (-topk 0 disables it)
//	GET  /metrics           Prometheus text (stream_*, serve_*, trace_*, go_*)
//	GET  /debug/pipeline    pipeline health: per-stage trace latencies,
//	                        freshness SLO budget, watermark lag, disk
//	                        footprint, recent lifecycle events
//
// Every -trace-every-th accepted edge carries an end-to-end trace record
// stamped at each pipeline stage (accept → reorder emit → WAL append and
// fsync → chunk seal → fold → checkpoint write → publish →
// serve-visible); -slo-objective sets the freshness SLO those traces are
// judged against, and -journal appends the lifecycle event log as JSON
// lines to a file. The same health document is served on a separate
// -health-addr listener when operators want it off the query port.
//
// Replication: -listen-repl accepts WAL-shipping replica sessions on the
// primary, and -replica-of runs this process as a read-only replica of
// another livecascade — it follows the primary's stream, serves the full
// query surface from byte-identical state (mutating admin routes answer
// 403), and fails over on POST /admin/promote, after which /ingest
// accepts edges here. See DESIGN.md "Replication (IREP0001)".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"ipin"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dir          = flag.String("dir", "", "ingester state directory (WAL + checkpoints); empty = a fresh temp dir")
		nodes        = flag.Int("nodes", 5_000, "self-feed: nodes in the generated cascade")
		interactions = flag.Int("interactions", 100_000, "self-feed: interactions in the generated cascade")
		eps          = flag.Float64("eps", 2_000, "self-feed: edges per second (0 disables the self-feed)")
		windowPct    = flag.Float64("window", 5, "influence window as % of the cascade's time span")
		retainPct    = flag.Float64("retain", 0, "retained history as % of the time span (0 = keep everything); must cover -window")
		topK         = flag.Int("topk", 10, "size of the live /stream/topk influencer view (0 disables it)")
		every        = flag.Duration("checkpoint-every", 2*time.Second, "interval between automatic checkpoints")
		slack        = flag.Int64("slack", 0, "out-of-order tolerance in ticks for externally fed edges")
		traceEvery   = flag.Int("trace-every", 1024, "trace every Nth accepted edge end to end (0 disables tracing)")
		sloObjective = flag.Duration("slo-objective", 5*time.Second, "freshness SLO: accept-to-queryable objective for traced edges (0 disables)")
		sloTarget    = flag.Float64("slo-target", 0.99, "freshness SLO: fraction of traced edges that must meet the objective")
		journalPath  = flag.String("journal", "", "append lifecycle events (rotations, seals, checkpoints, sheds) as JSON lines to this file")
		healthAddr   = flag.String("health-addr", "", "serve /debug/pipeline and /metrics on this extra address too")
		shards       = flag.Int("shards", 1, "route ingest across this many shards (each with its own WAL and checkpoints under -dir) and answer queries by scatter-gather merge; 1 = single-node")
		listenRepl   = flag.String("listen-repl", "", "accept WAL-shipping replica sessions on this address (single-node only)")
		replicaOf    = flag.String("replica-of", "", "run as a read-only replica of the primary at this address; promotes via POST /admin/promote")
	)
	flag.Parse()

	if *replicaOf != "" {
		if *shards > 1 {
			log.Fatal("-replica-of is a single-node role; -shards must be 1")
		}
		runReplica(*addr, *dir, *replicaOf, *journalPath)
		return
	}

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "livecascade-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}

	// The self-feed workload: a branching information cascade, the shape
	// the paper's model is about. Generated up front so omega can be
	// sized from the real span before the first edge flows.
	net, err := ipin.Generate(ipin.GenConfig{
		Name:         "livecascade",
		Model:        ipin.GenCascade,
		Nodes:        *nodes,
		Interactions: *interactions,
		SpanTicks:    int64(*interactions) * 2,
		Seed:         1,
		BranchMean:   1.2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(net.Interactions, func(i, j int) bool { return net.Interactions[i].At < net.Interactions[j].At })
	omega := net.WindowFromPercent(*windowPct)
	var retain int64
	if *retainPct > 0 {
		retain = net.WindowFromPercent(*retainPct)
		if retain < omega {
			retain = omega // Retain must cover the influence window
		}
	}
	var profileWindow int64
	if *topK > 0 {
		profileWindow = omega // profile the same window the oracle answers over
	}

	reg := ipin.NewMetricsRegistry()
	ipin.InstallMetrics(reg)
	ipin.InstallRuntimeMetrics(reg)

	var tr *ipin.Tracer
	if *shards > 1 && *traceEvery > 0 {
		// Edge traces are stamped serve-visible by the single-node query
		// server's generation swap; the scatter-gather frontend has no
		// equivalent single swap, so traced edges would never complete.
		log.Print("tracing disabled in cluster mode (-shards > 1)")
		*traceEvery = 0
	}
	if *traceEvery > 0 {
		tr = ipin.NewTracer(ipin.TraceConfig{
			SampleEvery: *traceEvery,
			SLO:         ipin.TraceSLOConfig{Objective: *sloObjective, Target: *sloTarget},
			Registry:    reg,
		})
	}
	var sink *os.File
	if *journalPath != "" {
		var err error
		if sink, err = os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
	}
	jr := ipin.NewTraceJournal(ipin.TraceJournalConfig{Sink: sink, Registry: reg})

	app, err := newApp(appConfig{
		dir: *dir, omega: omega, nodes: *nodes,
		slack: *slack, every: *every, registry: reg,
		profileWindow: profileWindow, topK: *topK, retain: retain,
		tracer: tr, journal: jr, shards: *shards,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 1 {
		log.Printf("live oracle on %s (ω=%d, checkpoint every %s, %d shards under %s)", *addr, omega, *every, *shards, *dir)
	} else {
		log.Printf("live oracle on %s (ω=%d, checkpoint every %s, state in %s)", *addr, omega, *every, *dir)
	}

	if *listenRepl != "" {
		if app.ing == nil {
			log.Fatal("-listen-repl is a single-node role; -shards must be 1")
		}
		prim, err := ipin.NewReplicationPrimary(ipin.ReplPrimaryConfig{
			Ingester: app.ing, Addr: *listenRepl, Registry: reg, Journal: jr,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer prim.Close()
		log.Printf("replication primary on %s", prim.Addr())
	}

	if *healthAddr != "" {
		hmux := http.NewServeMux()
		hmux.Handle("/debug/pipeline", app.health())
		hmux.Handle("/metrics", ipin.MetricsHandler(reg))
		go func() {
			hs := &http.Server{Addr: *healthAddr, Handler: hmux, ReadHeaderTimeout: 5 * time.Second}
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("health listener: %v", err)
			}
		}()
		log.Printf("pipeline health on %s/debug/pipeline", *healthAddr)
	}

	if *eps > 0 {
		go func() {
			if err := app.selfFeed(net, *eps); err != nil {
				log.Printf("self-feed: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           app.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Orderly shutdown: stop intake first so the final checkpoint covers
	// everything accepted, then drain HTTP.
	log.Print("shutting down")
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := app.close(closeCtx); err != nil {
		log.Printf("ingester close: %v", err)
	}
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// appConfig is what the app needs beyond library defaults; the test
// constructs it directly with tight intervals.
type appConfig struct {
	dir           string
	omega         int64
	nodes         int
	slack         int64
	every         time.Duration
	profileWindow int64 // >0 maintains sliding profiles for /stream/topk
	topK          int   // size of the live top-k view
	retain        int64 // >0 bounds retained history in ticks
	shards        int   // >1 shards the intake and serves scatter-gather
	registry      *ipin.MetricsRegistry
	tracer        *ipin.Tracer       // nil disables edge tracing
	journal       *ipin.TraceJournal // nil disables the event journal
}

// engine is what the routes need from the intake side — satisfied by
// both the single-node *ipin.Ingester and the sharded
// *ipin.ClusterIngester.
type engine interface {
	Push(ipin.Interaction) error
	Checkpoint(context.Context) error
	Close(context.Context) error
	Stats() ipin.IngestStats
	Health() map[string]any
	TopK() *ipin.HotView
	Handler() http.Handler
}

// app owns the intake→serving pair and the routes that expose them.
// srv serves the single node's snapshots or, in cluster mode, the merged
// view over the shards; ing is the raw single-node ingester (nil in
// cluster mode), the handle a replication primary attaches to.
type app struct {
	in  engine
	ing *ipin.Ingester
	srv *ipin.QueryServer
	reg *ipin.MetricsRegistry
	tr  *ipin.Tracer
	jr  *ipin.TraceJournal
}

func newApp(cfg appConfig) (*app, error) {
	if cfg.shards > 1 {
		// Sharded deployment: each shard keeps its own WAL and
		// checkpoints under dir/shard-NNN, publishes into the gather
		// store, and queries merge the per-shard sketches at answer time.
		cl, err := ipin.NewClusterIngester(ipin.ClusterConfig{
			Shards: cfg.shards,
			Dir:    cfg.dir,
			Stream: ipin.IngestConfig{
				Omega:           cfg.omega,
				NumNodes:        cfg.nodes,
				Slack:           cfg.slack,
				CheckpointEvery: cfg.every,
				ProfileWindow:   cfg.profileWindow,
				TopK:            cfg.topK,
				Retain:          cfg.retain,
				Registry:        cfg.registry,
				Journal:         cfg.journal,
			},
		})
		if err != nil {
			return nil, err
		}
		srv := ipin.NewClusterFrontend(cl.Gather())
		return &app{in: cl, srv: srv, reg: cfg.registry, jr: cfg.journal}, nil
	}
	// The tracer is shared: the ingester stamps intake through publish,
	// the query server stamps serve-visible at its generation swap — the
	// moment the traced edge actually becomes queryable.
	srv := ipin.NewQueryServer(ipin.ServeConfig{
		CacheSize: 1024,
		Registry:  cfg.registry,
		Tracer:    cfg.tracer,
		Journal:   cfg.journal,
	})
	in, err := ipin.NewIngester(ipin.IngestConfig{
		Dir:             cfg.dir,
		Omega:           cfg.omega,
		NumNodes:        cfg.nodes,
		Slack:           cfg.slack,
		CheckpointEvery: cfg.every,
		ProfileWindow:   cfg.profileWindow,
		TopK:            cfg.topK,
		Retain:          cfg.retain,
		Publish:         srv.LoadApprox,
		Registry:        cfg.registry,
		Tracer:          cfg.tracer,
		Journal:         cfg.journal,
	})
	if err != nil {
		return nil, err
	}
	return &app{in: in, ing: in, srv: srv, reg: cfg.registry, tr: cfg.tracer, jr: cfg.journal}, nil
}

// health builds the /debug/pipeline handler: trace and SLO state, the
// lifecycle event tail, and the ingester's live status (watermark lag,
// disk footprint) plus the served generation.
func (a *app) health() http.Handler {
	return &ipin.PipelineHealth{
		Tracer:  a.tr,
		Journal: a.jr,
		Status: func() map[string]any {
			st := a.in.Health()
			st["generation"] = a.srv.Generation()
			return st
		},
	}
}

// handler mounts the query surface next to the intake surface.
func (a *app) handler() http.Handler {
	mux := http.NewServeMux()
	a.srv.Register(mux)
	mux.Handle("/ingest", a.in.Handler())
	mux.HandleFunc("/admin/checkpoint", a.forceCheckpoint)
	mux.HandleFunc("/stream/stats", a.streamStats)
	mux.HandleFunc("/stream/topk", a.streamTopK)
	mux.Handle("/metrics", ipin.MetricsHandler(a.reg))
	mux.Handle("/debug/pipeline", a.health())
	routes := append(a.srv.Routes(), "/ingest", "/stream/stats", "/stream/topk")
	return ipin.InstrumentHTTP(a.reg, routes, mux)
}

// forceCheckpoint makes everything accepted so far queryable before the
// response returns — the knob a load test or a test harness uses instead
// of waiting out the interval.
func (a *app) forceCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErrorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := a.in.Checkpoint(r.Context()); err != nil {
		writeErrorJSON(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, map[string]any{"generation": a.srv.Generation(), "stats": a.in.Stats()})
}

func (a *app) streamStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"generation": a.srv.Generation(), "stats": a.in.Stats()})
}

// streamTopK serves the continuously-maintained top-k influencer view
// the compactor snapshots with every checkpoint: who is reaching the
// most distinct nodes inside the sliding profile window right now, with
// the checkpoint provenance (covered edges, last timestamp) the scores
// were computed at. 503 until the first checkpoint publishes a view, or
// always when the view is disabled (-topk 0).
func (a *app) streamTopK(w http.ResponseWriter, r *http.Request) {
	view := a.in.TopK()
	if view == nil {
		writeErrorJSON(w, http.StatusServiceUnavailable, "no top-k view published yet (enabled via -topk)")
		return
	}
	entries := make([]map[string]any, len(view.Entries))
	for i, e := range view.Entries {
		entries[i] = map[string]any{"node": e.Node, "score": e.Score}
	}
	writeJSON(w, map[string]any{
		"entries":       entries,
		"covered_edges": view.CoveredEdges,
		"last_at":       view.LastAt,
		"refreshed_at":  view.RefreshedAt.UTC().Format(time.RFC3339Nano),
	})
}

// selfFeed replays the generated cascade into the ingester at eps edges
// per second — in-process Push, the same path POST /ingest lands on.
func (a *app) selfFeed(net *ipin.Network, eps float64) error {
	interval := time.Duration(float64(time.Second) / eps)
	start := time.Now()
	for i, e := range net.Interactions {
		if err := a.in.Push(e); err != nil {
			return err
		}
		if d := time.Until(start.Add(time.Duration(i+1) * interval)); d > 0 {
			time.Sleep(d)
		}
	}
	log.Printf("self-feed: streamed %d edges", len(net.Interactions))
	return nil
}

func (a *app) close(ctx context.Context) error { return a.in.Close(ctx) }

// replicaApp is the -replica-of role: a WAL-shipping replica feeding a
// read-only query server, with POST /admin/promote as the failover
// lever. Until promotion, /ingest answers 503 — intake belongs to the
// primary; after promotion the replica's ingester accepts it.
type replicaApp struct {
	rep *ipin.Replica
	srv *ipin.QueryServer
	reg *ipin.MetricsRegistry
	jr  *ipin.TraceJournal
}

type replicaConfig struct {
	dir      string
	primary  string
	registry *ipin.MetricsRegistry
	journal  *ipin.TraceJournal
}

func newReplicaApp(cfg replicaConfig) (*replicaApp, error) {
	srv := ipin.NewQueryServer(ipin.ServeConfig{
		CacheSize: 1024,
		ReadOnly:  true,
		Registry:  cfg.registry,
		Journal:   cfg.journal,
	})
	rep, err := ipin.NewReplica(ipin.ReplicaConfig{
		Dir:         cfg.dir,
		PrimaryAddr: cfg.primary,
		Publish:     srv.LoadApprox,
		Registry:    cfg.registry,
		Journal:     cfg.journal,
	})
	if err != nil {
		return nil, err
	}
	return &replicaApp{rep: rep, srv: srv, reg: cfg.registry, jr: cfg.journal}, nil
}

func (ra *replicaApp) handler() http.Handler {
	mux := http.NewServeMux()
	ra.srv.Register(mux)
	mux.HandleFunc("/ingest", ra.ingest)
	mux.HandleFunc("/admin/promote", ra.promote)
	mux.HandleFunc("/stream/stats", ra.streamStats)
	mux.Handle("/metrics", ipin.MetricsHandler(ra.reg))
	routes := append(ra.srv.Routes(), "/ingest", "/stream/stats")
	return ipin.InstrumentHTTP(ra.reg, routes, mux)
}

func (ra *replicaApp) ingest(w http.ResponseWriter, r *http.Request) {
	if !ra.rep.Promoted() {
		writeErrorJSON(w, http.StatusServiceUnavailable, "read-only replica: intake belongs to the primary until promotion")
		return
	}
	ra.rep.Ingester().Handler().ServeHTTP(w, r)
}

// promote seals the replicated tail under a new epoch and opens intake
// here. Idempotent: promoting a promoted replica reports the state.
func (ra *replicaApp) promote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErrorJSON(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := ra.rep.Promote(r.Context()); err != nil {
		writeErrorJSON(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, map[string]any{
		"promoted": true,
		"epoch":    ra.rep.Ingester().Epoch(),
		"position": ra.rep.Position(),
	})
}

func (ra *replicaApp) streamStats(w http.ResponseWriter, r *http.Request) {
	st := map[string]any{
		"position":         ra.rep.Position(),
		"primary_position": ra.rep.PrimaryPosition(),
		"promoted":         ra.rep.Promoted(),
		"generation":       ra.srv.Generation(),
	}
	if !ra.rep.LastContact().IsZero() {
		st["last_contact"] = ra.rep.LastContact().UTC().Format(time.RFC3339Nano)
	}
	if err := ra.rep.Err(); err != nil {
		st["error"] = err.Error()
	}
	writeJSON(w, st)
}

func (ra *replicaApp) close(ctx context.Context) error { return ra.rep.Close(ctx) }

// runReplica is the -replica-of main: follow, serve read-only, promote
// on demand.
func runReplica(addr, dir, primary, journalPath string) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "livecascade-replica-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	reg := ipin.NewMetricsRegistry()
	ipin.InstallMetrics(reg)
	ipin.InstallRuntimeMetrics(reg)
	var sink *os.File
	if journalPath != "" {
		var err error
		if sink, err = os.OpenFile(journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			log.Fatal(err)
		}
		defer sink.Close()
	}
	jr := ipin.NewTraceJournal(ipin.TraceJournalConfig{Sink: sink, Registry: reg})

	ra, err := newReplicaApp(replicaConfig{dir: dir, primary: primary, registry: reg, journal: jr})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("read-only replica of %s on %s (state in %s); POST /admin/promote to fail over", primary, addr, dir)

	httpSrv := &http.Server{Addr: addr, Handler: ra.handler(), ReadHeaderTimeout: 5 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down")
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ra.close(closeCtx); err != nil {
		log.Printf("replica close: %v", err)
	}
	if err := httpSrv.Shutdown(closeCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("livecascade: encode: %v", err)
	}
}

func writeErrorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "status": status})
}
