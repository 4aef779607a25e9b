// Oracleserver exposes the influence oracle as a small HTTP service: the
// deployment shape the paper's "influence oracle" framing suggests —
// preprocess the interaction log once, then answer spread queries in
// O(|seeds|·β) regardless of network size.
//
// It is the repository's reference deployment of the serving layer
// (internal/serve, via the ipin facade): queries flow through admission
// control (bounded concurrency, bounded wait queue, per-request
// deadlines, 429/503 load shedding), a bounded LRU result cache with
// single-flight deduplication, and an immutable snapshot per request
// that reloads swap atomically under live traffic. Every route is wrapped in
// telemetry middleware and the process shuts down gracefully so the
// in-flight gauge drains to zero.
//
// The server runs from one of two sources:
//
//   - generated mode (default): synthesize a Table 2 dataset, run the
//     one-pass sketch scan at startup, and serve the result;
//   - snapshot mode (-snapshot irs.bin): serve a precomputed IRX1
//     summary file written by cmd/irs -save. SIGHUP or POST
//     /admin/reload re-reads the file and swaps it in without dropping
//     queries — the path to zero-downtime summary refreshes.
//
// Endpoints:
//
//	GET  /influence?node=<id>           one node's estimated reach
//	GET  /spread?seeds=<id>,<id>,...    combined estimated reach
//	GET  /topk?k=<n>                    greedy top-k seed selection
//	GET  /spreadby?seeds=...&deadline=t reach achievable BY a deadline
//	GET  /channel?src=<id>&dst=<id>     a witness information channel
//	GET  /stats                         snapshot statistics
//	POST /admin/reload                  re-read -snapshot and swap it in
//	GET  /metrics                       Prometheus text exposition (runtime series included)
//	GET  /debug/vars                    expvar JSON (same registry)
//	GET  /debug/pipeline                serving health as JSON (generation, queue depth)
//	GET  /debug/pprof/                  runtime profiles
//
// Errors come back as JSON ({"error": ..., "status": ...}) with proper
// status codes: 400 for malformed parameters, 404 for unknown nodes, 429
// and 503 (with Retry-After) under load shedding. /channel needs the raw
// interaction log, which a summary snapshot does not carry, so in
// snapshot mode it answers 501.
//
// Run with:
//
//	go run ./examples/oracleserver [-addr :8080] [-dataset slashdot]
//	go run ./examples/oracleserver -snapshot irs.bin
//
// and query with e.g. curl 'localhost:8080/spread?seeds=1,2,3'.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"ipin"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "slashdot", "Table 2 dataset to serve (generated mode)")
		scale       = flag.Int("scale", 100, "dataset down-scaling factor")
		windowPct   = flag.Float64("window", 10, "window as % of the time span")
		parallelism = flag.Int("parallelism", 0, "workers for the startup scan and collapse (0 = GOMAXPROCS)")
		snapshot    = flag.String("snapshot", "", "serve this IRX1 summary file (cmd/irs -save) instead of generating a dataset; reloadable via SIGHUP or POST /admin/reload")
		cacheSize   = flag.Int("cache-size", 4096, "result-cache entries; 0 disables caching")
		maxInflight = flag.Int("max-inflight", 0, "queries computing concurrently (0 = library default, negative disables admission control)")
		queueDepth  = flag.Int("queue-depth", 0, "bounded wait queue for admission (0 = 2×max-inflight)")
		timeout     = flag.Duration("request-timeout", 0, "per-request deadline covering queue wait and computation (0 = library default)")
	)
	flag.Parse()
	ipin.SetParallelism(*parallelism)

	reg := ipin.NewMetricsRegistry()
	ipin.InstallMetrics(reg)
	ipin.InstallRuntimeMetrics(reg)
	reg.PublishExpvar("ipin")

	srv := ipin.NewQueryServer(ipin.ServeConfig{
		CacheSize:      *cacheSize,
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		RequestTimeout: *timeout,
		SnapshotPath:   *snapshot,
		Registry:       reg,
	})

	var app *appState // nil in snapshot mode: no raw log, /channel answers 501
	if *snapshot != "" {
		if err := srv.Reload(); err != nil {
			log.Fatal(err)
		}
		log.Printf("serving snapshot %s (generation %d) on %s", *snapshot, srv.Generation(), *addr)
	} else {
		cfg, err := ipin.GenDataset(*dataset, *scale)
		if err != nil {
			log.Fatal(err)
		}
		net, err := ipin.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		omega := net.WindowFromPercent(*windowPct)
		// Parallel over time blocks; identical sketches to the sequential scan.
		irs, err := ipin.ComputeApproxParallel(net, omega, ipin.DefaultPrecision, 0)
		if err != nil {
			log.Fatal(err)
		}
		srv.LoadApprox(irs)
		app = &appState{net: net, omega: omega}
		log.Printf("oracle for %s (%d nodes, %d interactions, ω=%d) on %s",
			*dataset, net.NumNodes, net.Len(), omega, *addr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           buildHandler(srv, app, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGHUP = reload the snapshot file in place, the classic daemon
	// convention; queries in flight keep answering on the old snapshot.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				log.Printf("reload: %v", err)
				continue
			}
			log.Printf("reloaded %s (generation %d)", *snapshot, srv.Generation())
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let running requests (and the
	// in-flight gauge) finish, then exit.
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// appState carries what only generated mode has: the raw interaction log
// the /channel witness search walks.
type appState struct {
	net   *ipin.Network
	omega int64
}

// buildHandler assembles the full route table: the serving layer's query
// routes, the /channel diagnostic, and the observability endpoints, all
// behind telemetry middleware.
func buildHandler(srv *ipin.QueryServer, app *appState, reg *ipin.MetricsRegistry) http.Handler {
	mux := http.NewServeMux()
	srv.Register(mux)
	mux.HandleFunc("/channel", app.channel)
	mux.Handle("/metrics", ipin.MetricsHandler(reg))
	mux.Handle("/debug/pipeline", &ipin.PipelineHealth{Status: func() map[string]any {
		return map[string]any{
			"generation":  srv.Generation(),
			"queue_depth": srv.QueueDepthNow(),
		}
	}})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	routes := append(srv.Routes(), "/channel", "/metrics")
	return ipin.InstrumentHTTP(reg, routes, mux)
}

// channel exhibits a witness information channel src→dst, answering WHY
// the oracle counts dst in src's influence. It needs the raw log, so
// snapshot mode (app == nil) answers 501.
func (app *appState) channel(w http.ResponseWriter, r *http.Request) {
	if app == nil {
		writeErrorJSON(w, http.StatusNotImplemented,
			"channel reconstruction needs the interaction log; this server runs from a summary snapshot")
		return
	}
	src, err := app.parseNode(r.URL.Query().Get("src"))
	if err != nil {
		err.write(w)
		return
	}
	dst, err := app.parseNode(r.URL.Query().Get("dst"))
	if err != nil {
		err.write(w)
		return
	}
	ch := ipin.FindChannel(app.net, src, dst, app.omega)
	if ch == nil {
		writeJSON(w, map[string]any{"src": src, "dst": dst, "channel": nil})
		return
	}
	type hop struct {
		Src ipin.NodeID `json:"src"`
		Dst ipin.NodeID `json:"dst"`
		At  ipin.Time   `json:"at"`
	}
	hops := make([]hop, len(ch))
	for i, e := range ch {
		hops[i] = hop{Src: e.Src, Dst: e.Dst, At: e.At}
	}
	writeJSON(w, map[string]any{
		"src": src, "dst": dst,
		"channel": hops, "duration": ch.Duration(), "end": ch.End(),
	})
}

// requestError is an application error with the HTTP status it deserves.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) write(w http.ResponseWriter) { writeErrorJSON(w, e.status, e.msg) }

// parseNode resolves a node-id parameter: 400 when malformed, 404 when
// well-formed but outside the network.
func (app *appState) parseNode(raw string) (ipin.NodeID, *requestError) {
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, &requestError{http.StatusBadRequest, fmt.Sprintf("bad node id %q", raw)}
	}
	if id < 0 || id >= app.net.NumNodes {
		return 0, &requestError{http.StatusNotFound, fmt.Sprintf("unknown node %q", raw)}
	}
	return ipin.NodeID(id), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("oracleserver: encode: %v", err)
	}
}

func writeErrorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "status": status})
}
