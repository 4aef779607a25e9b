// Package serve is the production-shaped query layer between computed IRS
// summaries and HTTP: everything a process needs to keep answering
// influence-oracle queries fast and predictably while snapshots reload
// underneath it and traffic exceeds what the host can absorb. It is the
// only HTTP query layer: a single node serves its own snapshots through
// it, and a cluster serves its scatter-gather view (internal/cluster).
//
// Every request is answered from one immutable View taken when it
// starts — its generation, node range, cache key and body all come from
// that one state. Three mechanisms compose in request order:
//
//   - Admission control (admission.go): a concurrency limiter with a
//     bounded FIFO wait queue and per-request deadlines. Requests beyond
//     the queue bound are shed immediately with 429 and Retry-After;
//     requests whose deadline expires while queued get 503. Latency under
//     overload therefore stays bounded by design instead of growing
//     without limit.
//
//   - A result cache (cache.go): a bounded LRU over fully rendered
//     response bodies, keyed on the route, the canonicalized (sorted,
//     deduplicated) parameters, and the view's generation, with
//     single-flight deduplication — concurrent identical queries compute
//     once and share the bytes. Because the cache stores the exact bytes
//     a cold computation would produce, responses are byte-identical with
//     the cache on or off.
//
//   - The view (store.go): on a single node, one atomic pointer to an
//     immutable snapshot. A reload (SIGHUP or POST /admin/reload) decodes
//     and collapses the new summaries entirely off the read path, then
//     swaps the pointer; requests in flight finish on the snapshot they
//     took, and nothing on the read path takes a lock.
//
// All three are instrumented through internal/obs (cache hit/miss/
// single-flight counters, shed counters by reason, queue-depth gauge,
// reload counter; per-route latency histograms come from obs.Middleware
// wrapped around the handler). A nil Registry keeps every instrument a
// no-op.
//
// Typical wiring (examples/oracleserver is the reference deployment):
//
//	srv := serve.New(serve.Config{CacheSize: 4096, MaxInflight: 64,
//		QueueDepth: 128, SnapshotPath: "irs.bin", Registry: reg})
//	srv.LoadApprox(summaries)          // or srv.Reload() from SnapshotPath
//	http.ListenAndServe(addr, srv.Handler())
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipin/internal/graph"
	"ipin/internal/obs"
	"ipin/internal/trace"
)

// Config parameterizes a query server. The zero value is usable: defaults
// fill in below, and a zero CacheSize simply disables the result cache.
type Config struct {
	// CacheSize bounds the result cache in entries; 0 disables caching
	// (and with it single-flight deduplication).
	CacheSize int
	// MaxInflight bounds the number of queries computing concurrently;
	// 0 selects DefaultMaxInflight, negative disables admission control.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an inflight slot;
	// 0 selects 2×MaxInflight. Requests beyond the bound are shed with
	// 429 immediately.
	QueueDepth int
	// RequestTimeout is the per-request deadline covering queue wait and
	// computation; 0 selects DefaultRequestTimeout.
	RequestTimeout time.Duration
	// SnapshotPath, when set, is the IRX1 summary file Reload and the
	// /admin/reload route re-read.
	SnapshotPath string
	// ReadOnly marks this server as a replica's read-only view: snapshots
	// arrive only through the in-process publish path (LoadApprox from
	// the replication apply loop), and the mutating admin surface
	// (/admin/reload) answers 403 instead of swapping state underneath
	// the replicated lineage.
	ReadOnly bool
	// Registry receives the serving metrics; nil disables them.
	Registry *obs.Registry
	// Tracer, when non-nil, is stamped serve-visible after every snapshot
	// install — the terminal stage of the pipeline's end-to-end traces.
	Tracer *trace.Tracer
	// Journal, when non-nil, receives snapshot-reload and shed events.
	Journal *trace.Journal
}

// Defaults for the zero Config.
const (
	DefaultMaxInflight    = 64
	DefaultRequestTimeout = 10 * time.Second
)

// Server is the query layer: a source of views, an optional result
// cache, and admission control, exposed as HTTP handlers.
type Server struct {
	cfg     Config
	current func() View // the view a request starts on; nil = nothing loaded
	extra   []extraRoute
	cache   *cache   // nil when disabled
	lim     *limiter // nil when disabled
	mx      *metrics

	// Own snapshots (New): loadMu orders installs so generations grow
	// by one per install.
	snap   atomic.Pointer[snapshot]
	loadMu sync.Mutex
	// genMu guards genCh, which is closed and replaced on every snapshot
	// install; WaitGeneration blocks on it.
	genMu sync.Mutex
	genCh chan struct{}
}

// extraRoute is a route added with Handle.
type extraRoute struct {
	path string
	h    http.HandlerFunc
}

// New returns a query server over its own snapshots; every query route
// answers 503 until LoadExact, LoadApprox, or Reload installs one.
func New(cfg Config) *Server {
	s := NewOver(cfg, nil)
	s.current = func() View {
		if snap := s.snap.Load(); snap != nil {
			return snap
		}
		return nil
	}
	return s
}

// NewOver returns a query server that answers each request from the view
// current returns when the request starts; a nil view answers 503. The
// views' generations key the cache, so they must grow whenever the
// state does. Such a server holds no snapshots of its own: Load*,
// Reload and WaitGeneration apply to servers from New.
func NewOver(cfg Config, current func() View) *Server {
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	mx := newMetrics(cfg.Registry)
	s := &Server{cfg: cfg, current: current, mx: mx, genCh: make(chan struct{})}
	if cfg.CacheSize > 0 {
		s.cache = newCache(cfg.CacheSize, mx)
	}
	if cfg.MaxInflight > 0 {
		s.lim = newLimiter(cfg.MaxInflight, cfg.QueueDepth, mx)
	}
	// Read-time gauge: a push-style gauge would have to be updated on
	// every insert/evict/purge; the count is cheap to read on demand.
	cfg.Registry.GaugeFunc(MetricCacheEntries, "Result-cache entries currently resident.", func() int64 {
		return int64(s.cache.len())
	})
	return s
}

// Generation returns the generation of the view currently served, zero
// before the first. Response caching is keyed on it.
func (s *Server) Generation() uint64 {
	if v := s.current(); v != nil {
		return v.Generation()
	}
	return 0
}

// WaitGeneration blocks until the served generation reaches at least g
// or ctx expires. It is how a caller that just handed summaries to a
// live-ingestion publisher waits for them to become queryable.
func (s *Server) WaitGeneration(ctx context.Context, g uint64) error {
	for {
		s.genMu.Lock()
		ch := s.genCh
		s.genMu.Unlock()
		if s.Generation() >= g {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// QueueDepthNow returns the number of requests currently waiting for an
// inflight slot, zero when admission control is disabled. It can never
// exceed Config.QueueDepth — requests beyond the bound are shed, not
// queued.
func (s *Server) QueueDepthNow() int64 {
	if s.lim == nil {
		return 0
	}
	return s.lim.waiting.Load()
}

// Handle adds a route served beside the query routes and, like
// /admin/reload, outside admission control — a deployment's own status
// document, say. Call it before Register or Handler.
func (s *Server) Handle(path string, h http.HandlerFunc) {
	s.extra = append(s.extra, extraRoute{path, h})
}

// queryRoutes are the routes every view answers, by path.
var queryRoutes = []struct {
	path string
	rt   route
}{
	{"/influence", influence},
	{"/spread", spread},
	{"/topk", topk},
	{"/spreadby", spreadBy},
	{"/spreadwindow", spreadWindow},
	{"/stats", stats},
}

// Routes returns the URL paths Register installs, the closed set an
// obs.Middleware wrapper should track individually.
func (s *Server) Routes() []string {
	var routes []string
	for _, q := range queryRoutes {
		routes = append(routes, q.path)
	}
	routes = append(routes, "/admin/reload")
	for _, e := range s.extra {
		routes = append(routes, e.path)
	}
	return routes
}

// Register installs the query routes on mux. Query routes pass through
// admission control; /admin/reload and routes added with Handle do not,
// so operators keep control of an overloaded server.
func (s *Server) Register(mux *http.ServeMux) {
	for _, q := range queryRoutes {
		mux.HandleFunc(q.path, s.query(q.path, q.rt))
	}
	mux.HandleFunc("/admin/reload", s.reload)
	for _, e := range s.extra {
		mux.HandleFunc(e.path, e.h)
	}
}

// Handler returns the standalone handler: the registered routes wrapped
// in obs.Middleware over the configured registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return obs.Middleware(s.cfg.Registry, s.Routes(), mux)
}

// requestError is an application error with the HTTP status it deserves.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badParam(format string, args ...any) error {
	return &requestError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

var errNoSnapshot = &requestError{status: http.StatusServiceUnavailable, msg: "no snapshot loaded"}

// errWindowNeedsApprox is the /spreadwindow answer on an exact snapshot:
// the request is well-formed but conflicts with the loaded summary kind.
var errWindowNeedsApprox = &requestError{
	status: http.StatusConflict,
	msg:    "window queries require an approx snapshot",
}

// shed writes the load-shedding response for a limiter error, with a
// Retry-After hint so well-behaved clients back off.
func (s *Server) shed(w http.ResponseWriter, err error) {
	status := http.StatusServiceUnavailable
	cause := "deadline"
	if errors.Is(err, errQueueFull) {
		status = http.StatusTooManyRequests
		cause = "queue_full"
	}
	s.cfg.Journal.Record(trace.EventShed, cause, 0, map[string]any{
		"queued": s.QueueDepthNow(),
	})
	w.Header().Set("Retry-After", "1")
	writeError(w, &requestError{status: status, msg: err.Error()})
}

// route parses one request against view v. It returns the cache-key
// fragment of its canonical parameters and the computation of its body,
// both drawn from v alone.
type route func(v View, q url.Values) (key string, body func() (any, error), err error)

// query wraps a route in the serving protocol: the per-request deadline
// and the concurrency limiter (shedding with 429 or 503 before anything
// runs), then one view for the whole request. The canonical key, under
// the route path and the view's generation, is looked up in the cache
// (computing once under single-flight on a miss), and the stored bytes
// are written. With the cache disabled the body is computed directly —
// the bytes are identical either way.
func (s *Server) query(path string, rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// The deadline's timer is armed only where a request blocks — in
		// the wait queue or behind an identical in-flight query. Arming
		// one on every request added about 10 µs to each request after
		// an idle pause on a 2-vCPU VM, cache hits included.
		ctx, deadline := r.Context(), time.Now().Add(s.cfg.RequestTimeout)
		if s.lim != nil {
			if err := s.lim.acquire(ctx, deadline); err != nil {
				s.shed(w, err)
				return
			}
			defer s.lim.release()
		}
		v := s.current()
		if v == nil {
			writeError(w, errNoSnapshot)
			return
		}
		key, compute, err := rt(v, r.URL.Query())
		if err != nil {
			writeError(w, err)
			return
		}
		render := func() ([]byte, error) {
			body, err := compute()
			if err != nil {
				return nil, err
			}
			return marshalBody(body)
		}
		var body []byte
		if s.cache != nil {
			body, err = s.cache.do(ctx, deadline, fmt.Sprintf("%s|%d|%s", path, v.Generation(), key), render)
		} else {
			body, err = render()
		}
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}
}

func influence(v View, q url.Values) (string, func() (any, error), error) {
	u, err := parseNode(q.Get("node"), v.NumNodes())
	if err != nil {
		return "", nil, err
	}
	return strconv.Itoa(int(u)), func() (any, error) {
		return map[string]any{"node": u, "influence": v.Influence(u)}, nil
	}, nil
}

func spread(v View, q url.Values) (string, func() (any, error), error) {
	seeds, err := parseSeeds(q.Get("seeds"), v.NumNodes())
	if err != nil {
		return "", nil, err
	}
	return seedKey(seeds), func() (any, error) {
		return map[string]any{"seeds": seeds, "spread": v.Spread(seeds)}, nil
	}, nil
}

// topk answers the greedy seeds with their spread, both from one view.
func topk(v View, q url.Values) (string, func() (any, error), error) {
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 || k > v.NumNodes() {
		return "", nil, badParam("bad k parameter")
	}
	return strconv.Itoa(k), func() (any, error) {
		seeds, err := v.TopK(k)
		if err != nil {
			return nil, err
		}
		return map[string]any{"seeds": seeds, "spread": v.Spread(seeds)}, nil
	}, nil
}

func spreadBy(v View, q url.Values) (string, func() (any, error), error) {
	seeds, err := parseSeeds(q.Get("seeds"), v.NumNodes())
	if err != nil {
		return "", nil, err
	}
	deadline, err := strconv.ParseInt(q.Get("deadline"), 10, 64)
	if err != nil {
		return "", nil, badParam("bad deadline parameter")
	}
	return fmt.Sprintf("%s|%d", seedKey(seeds), deadline), func() (any, error) {
		return map[string]any{
			"seeds":    seeds,
			"deadline": deadline,
			"spread":   v.SpreadBy(seeds, graph.Time(deadline)),
		}, nil
	}, nil
}

// spreadWindow answers the jumping/sliding-window spread: the estimated
// number of distinct nodes first influenced by the seed set inside
// [at, at+horizon−1], with horizon defaulting to the view's omega (so a
// bare at gives one jumping-window position).
func spreadWindow(v View, q url.Values) (string, func() (any, error), error) {
	seeds, err := parseSeeds(q.Get("seeds"), v.NumNodes())
	if err != nil {
		return "", nil, err
	}
	at, err := strconv.ParseInt(q.Get("at"), 10, 64)
	if err != nil {
		return "", nil, badParam("bad at parameter")
	}
	horizon := v.Omega()
	if raw := q.Get("horizon"); raw != "" {
		horizon, err = strconv.ParseInt(raw, 10, 64)
		if err != nil || horizon < 1 {
			return "", nil, badParam("bad horizon parameter")
		}
	}
	return fmt.Sprintf("%s|%d|%d", seedKey(seeds), at, horizon), func() (any, error) {
		spread, err := v.SpreadWindow(seeds, at, horizon)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"seeds":   seeds,
			"at":      at,
			"horizon": horizon,
			"spread":  spread,
		}, nil
	}, nil
}

func stats(v View, _ url.Values) (string, func() (any, error), error) {
	return "", func() (any, error) { return v.Stats() }, nil
}

// reload re-reads the configured snapshot file and swaps it in. Exposed
// as POST /admin/reload; the same Reload method backs SIGHUP handling.
func (s *Server) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &requestError{status: http.StatusMethodNotAllowed, msg: "POST required"})
		return
	}
	if s.cfg.ReadOnly {
		writeError(w, &requestError{status: http.StatusForbidden, msg: "read-only replica: snapshots arrive via replication"})
		return
	}
	if err := s.Reload(); err != nil {
		writeError(w, &requestError{status: http.StatusConflict, msg: err.Error()})
		return
	}
	body, err := marshalBody(map[string]any{"reloaded": s.cfg.SnapshotPath, "generation": s.Generation()})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// parseNode resolves a node-id parameter: 400 when malformed, 404 when
// well-formed but outside the snapshot.
func parseNode(raw string, numNodes int) (graph.NodeID, error) {
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badParam("bad node id %q", raw)
	}
	if id < 0 || id >= numNodes {
		return 0, &requestError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown node %q", raw)}
	}
	return graph.NodeID(id), nil
}

// parseSeeds resolves a comma-separated seeds parameter into the
// canonical (sorted, deduplicated) seed set. Responses echo this
// canonical set, so equivalent queries share one cache entry and one
// body.
func parseSeeds(raw string, numNodes int) ([]graph.NodeID, error) {
	if raw == "" {
		return nil, badParam("missing seeds parameter")
	}
	parts := strings.Split(raw, ",")
	seeds := make([]graph.NodeID, 0, len(parts))
	for _, part := range parts {
		id, err := parseNode(strings.TrimSpace(part), numNodes)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, id)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	dedup := seeds[:1]
	for _, u := range seeds[1:] {
		if u != dedup[len(dedup)-1] {
			dedup = append(dedup, u)
		}
	}
	return dedup, nil
}

// seedKey renders a canonical seed set as a cache-key fragment.
func seedKey(seeds []graph.NodeID) string {
	var b strings.Builder
	for i, u := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(u)))
	}
	return b.String()
}

// marshalBody renders a response value exactly as json.Encoder would
// (trailing newline included), the byte shape both the cold and the
// cached path serve.
func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// writeError writes a JSON error body with the status carried by err
// (500 for plain errors).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var re *requestError
	if errors.As(err, &re) {
		status = re.status
	} else if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "status": status})
}
