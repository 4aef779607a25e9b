// Package ipin (Information Propagation in Interaction Networks) is the
// public API of this repository: a Go implementation of
//
//	Rohit Kumar and Toon Calders. "Information Propagation in Interaction
//	Networks." EDBT 2017.
//
// An interaction network is a stream of timestamped directed interactions
// (u, v, t). An information channel is a path of interactions with
// strictly increasing timestamps whose total duration is bounded by a
// window ω; the influence reachability set σω(u) collects every node u can
// reach through such a channel. This package computes σω for all nodes in
// ONE pass over the interactions — exactly, or approximately in sublinear
// memory with a versioned HyperLogLog sketch — and builds an influence
// oracle and top-k influencer selection on the result.
//
// # Quick start
//
//	net := ipin.NewNetwork(3)
//	net.Add(0, 1, 100)
//	net.Add(1, 2, 250)
//	net.Sort()
//
//	irs, _ := ipin.ComputeApprox(net, net.WindowFromPercent(10), ipin.DefaultPrecision)
//	oracle := ipin.NewApproxOracle(irs)
//	seeds := oracle.TopK(10)
//	spread := oracle.Spread(seeds)
//
// The subpackages under internal/ carry the substrates (sketches, cascade
// simulator, baselines, generators, experiment harness); this package
// re-exports the surface a downstream user needs. See README.md for the
// architecture and DESIGN.md for the paper-to-code map.
package ipin

import (
	"io"
	"net/http"

	"ipin/internal/cascade"
	"ipin/internal/cluster"
	"ipin/internal/core"
	"ipin/internal/gen"
	"ipin/internal/graph"
	"ipin/internal/hll"
	"ipin/internal/obs"
	"ipin/internal/repl"
	"ipin/internal/serve"
	"ipin/internal/stream"
	"ipin/internal/swhll"
	"ipin/internal/temporal"
	"ipin/internal/trace"
	"ipin/internal/vhll"
)

// Core value types of the interaction-network model (paper §2).
type (
	// NodeID is a dense node identifier in [0, NumNodes).
	NodeID = graph.NodeID
	// Time is an interaction timestamp in opaque ticks.
	Time = graph.Time
	// Interaction is one directed, timestamped interaction (u, v, t).
	Interaction = graph.Interaction
	// Network is an interaction network: nodes plus a time-ordered
	// interaction log.
	Network = graph.Log
	// NodeTable interns external string node names to NodeIDs.
	NodeTable = graph.NodeTable
)

// NewNetwork returns an empty interaction network over n nodes.
func NewNetwork(n int) *Network { return graph.New(n) }

// NewNodeTable returns an empty node-name interning table.
func NewNodeTable() *NodeTable { return graph.NewNodeTable() }

// ReadNetwork parses the whitespace text format ("src dst time" per
// line); node names are interned into the returned table. The log comes
// back sorted by time.
func ReadNetwork(r io.Reader) (*Network, *NodeTable, error) { return graph.ReadLog(r) }

// WriteNetwork writes the network in the text format; a nil table writes
// numeric NodeIDs.
func WriteNetwork(w io.Writer, n *Network, table *NodeTable) error {
	return graph.WriteLog(w, n, table)
}

// IRS computation (paper Algorithms 2 and 3).
type (
	// ExactIRS holds exact per-node IRS summaries.
	ExactIRS = core.ExactSummaries
	// ApproxIRS holds sketched per-node IRS summaries.
	ApproxIRS = core.ApproxSummaries
	// Oracle answers influence queries, and selects top-k seeds on the
	// same table, over either representation.
	Oracle = core.Oracle
	// HLL is a plain HyperLogLog sketch (the collapsed per-node summary).
	HLL = hll.Sketch
	// VHLL is the versioned HyperLogLog sketch of paper §3.2.2.
	VHLL = vhll.Sketch
)

// DefaultPrecision is the sketch precision (β = 512) the paper settles on.
const DefaultPrecision = core.DefaultPrecision

// ComputeExact runs the exact one-pass IRS algorithm with window omega
// (in ticks) over a sorted network.
func ComputeExact(n *Network, omega int64) *ExactIRS { return core.ComputeExact(n, omega) }

// ComputeApprox runs the sketch-based one-pass IRS algorithm.
func ComputeApprox(n *Network, omega int64, precision int) (*ApproxIRS, error) {
	return core.ComputeApprox(n, omega, precision)
}

// ComputeExactParallel is ComputeExact over time-sliced blocks scanned by
// up to workers goroutines (≤ 0 selects GOMAXPROCS). The output is
// byte-identical to the sequential scan; small networks fall back to it
// outright.
func ComputeExactParallel(n *Network, omega int64, workers int) *ExactIRS {
	return core.ComputeExactParallel(n, omega, workers)
}

// ComputeApproxParallel is the sketch-based counterpart of
// ComputeExactParallel; the resulting sketches are identical to
// ComputeApprox's.
func ComputeApproxParallel(n *Network, omega int64, precision, workers int) (*ApproxIRS, error) {
	return core.ComputeApproxParallel(n, omega, precision, workers)
}

// SetParallelism fixes the worker count used by the library's internal
// parallel phases — oracle collapse and index fill, first-round
// seed-selection gains, summary unions, checkpoint folds. Zero (the
// default) means GOMAXPROCS.
func SetParallelism(workers int) { core.SetParallelism(workers) }

// ReadExactIRS loads exact summaries previously saved with
// (*ExactIRS).WriteTo.
func ReadExactIRS(r io.Reader) (*ExactIRS, error) { return core.ReadExactSummaries(r) }

// ReadApproxIRS loads sketched summaries previously saved with
// (*ApproxIRS).WriteTo.
func ReadApproxIRS(r io.Reader) (*ApproxIRS, error) { return core.ReadApproxSummaries(r) }

// NewExactOracle indexes exact summaries into an influence oracle whose
// Spread walks each seed's summary once, marking the union in a bitset.
func NewExactOracle(s *ExactIRS) Oracle { return core.NewExactOracle(s) }

// NewApproxOracle finalizes sketched summaries into an influence oracle
// whose query cost is O(|seeds|·β), independent of the network size.
func NewApproxOracle(s *ApproxIRS) Oracle { return core.NewApproxOracle(s) }

// SpreadBy returns the exact number of distinct nodes the seed set can
// have influenced BY the deadline: the union of {v : λ(u,v) ≤ deadline}
// over the seeds.
func SpreadBy(s *ExactIRS, seeds []NodeID, deadline Time) int { return s.SpreadBy(seeds, deadline) }

// SpreadByEstimate is the sketched counterpart of SpreadBy.
func SpreadByEstimate(s *ApproxIRS, seeds []NodeID, deadline Time) float64 {
	return s.SpreadByEstimate(seeds, deadline)
}

// TopKExact selects k seed nodes from exact summaries with the paper's
// greedy Algorithm 4.
func TopKExact(s *ExactIRS, k int) []NodeID { return core.TopKExact(s, k) }

// TopKApprox selects k seed nodes from sketched summaries with the
// paper's greedy Algorithm 4.
func TopKApprox(s *ApproxIRS, k int) []NodeID { return core.TopKApproxSeeds(s, k) }

// TopKExactCELF is TopKExact with CELF lazy evaluation — the same seeds
// at lower cost on large candidate sets.
func TopKExactCELF(s *ExactIRS, k int) []NodeID { return core.TopKExactCELF(s, k) }

// TopKApproxCELF is TopKApprox with CELF lazy evaluation.
func TopKApproxCELF(s *ApproxIRS, k int) []NodeID { return core.TopKApproxCELF(s, k) }

// Cascade simulation (paper Algorithm 1).
type (
	// CascadeConfig parameterizes the Time-Constrained Information
	// Cascade model.
	CascadeConfig = cascade.Config
)

// Simulate runs one TCIC trial and returns the number of infected nodes.
func Simulate(n *Network, seeds []NodeID, cfg CascadeConfig) int {
	return cascade.Simulate(n, seeds, cfg)
}

// AverageSpread repeats Simulate over independent trials (in parallel)
// and returns the mean spread.
func AverageSpread(n *Network, seeds []NodeID, cfg CascadeConfig, trials, parallelism int) float64 {
	return cascade.AverageSpread(n, seeds, cfg, trials, parallelism)
}

// Synthetic data generation (the Table 2 stand-ins).
type (
	// GenConfig parameterizes a synthetic interaction network.
	GenConfig = gen.Config
	// GenModel selects the structural family of a generated network.
	GenModel = gen.Model
)

// The generator models.
const (
	GenEmail   = gen.ModelEmail
	GenSocial  = gen.ModelSocial
	GenCascade = gen.ModelCascade
	GenUniform = gen.ModelUniform
)

// Generate produces a synthetic interaction network.
func Generate(cfg GenConfig) (*Network, error) { return gen.Generate(cfg) }

// GenDataset returns the generator config of one of the paper's Table 2
// datasets ("enron", "lkml", "facebook", "higgs", "slashdot", "us2016")
// at the given down-scaling factor.
func GenDataset(name string, scale int) (GenConfig, error) { return gen.Dataset(name, scale) }

// Diagnostics and live monitoring.
type (
	// Channel is one concrete information channel — the sequence of
	// interactions witnessing that its source influences its final
	// destination.
	Channel = temporal.Channel
	// NetworkStats summarizes the structural shape of a network.
	NetworkStats = graph.Stats
	// SlidingProfiles maintains approximate distinct-contact counts per
	// node over the trailing ω ticks of a LIVE forward stream — the
	// sliding-window neighborhood profiles of the paper's reference [15].
	SlidingProfiles = swhll.Profiles
)

// FindChannel reconstructs the earliest-ending information channel u→v of
// duration ≤ omega, the witness behind an IRS entry; nil when none
// exists. Brute force — use it for diagnostics on specific pairs, not in
// bulk.
func FindChannel(n *Network, u, v NodeID, omega int64) Channel {
	return temporal.FindChannel(n, u, v, omega)
}

// ComputeStats summarizes a network's structural shape.
func ComputeStats(n *Network) NetworkStats { return graph.ComputeStats(n) }

// NewSlidingProfiles returns a live profile maintainer over n nodes with
// the given sketch precision and window length in ticks. Feed it
// interactions in time order with Observe; read Profile/Top at any time.
func NewSlidingProfiles(n, precision int, window int64) (*SlidingProfiles, error) {
	return swhll.NewProfiles(n, precision, window)
}

// Serving (internal/serve): the production-shaped query layer between
// computed IRS summaries and HTTP.
type (
	// QueryServer answers oracle queries over HTTP from one immutable
	// snapshot per request (live-reloadable via Reload or POST
	// /admin/reload), with a bounded LRU result cache with single-flight
	// deduplication and admission control that sheds overload with
	// 429/503. Responses are byte-identical with caching on or off. A
	// cluster's merged query surface (NewClusterFrontend) is the same
	// server over a scatter-gather view.
	QueryServer = serve.Server
	// ServeConfig parameterizes a QueryServer; its zero value is usable.
	ServeConfig = serve.Config
)

// NewQueryServer returns a query server with no snapshot loaded; every
// query route answers 503 until LoadExact, LoadApprox, or Reload
// installs one. Mount it with (*QueryServer).Handler, or Register its
// routes on an existing mux:
//
//	srv := ipin.NewQueryServer(ipin.ServeConfig{CacheSize: 4096})
//	srv.LoadApprox(irs)
//	http.ListenAndServe(":8080", srv.Handler())
func NewQueryServer(cfg ServeConfig) *QueryServer { return serve.New(cfg) }

// Live ingestion (internal/stream): streaming edge intake, incremental
// sketch maintenance, and checkpointed hot-swap into the serving layer.
type (
	// Ingester is the live intake pipeline: timestamped interactions go
	// in (Push, or the TCP/HTTP/file-tail sources), pass a bounded
	// out-of-order reordering buffer, are made durable in a write-ahead
	// log, and surface as continuously refreshed ApproxIRS checkpoints.
	// Recovery is WAL replay: after a crash the rebuilt state is
	// byte-identical to an uninterrupted run over the surviving prefix.
	Ingester = stream.Ingester
	// IngestConfig parameterizes an Ingester; Dir and Omega are
	// required, everything else has a usable zero value.
	IngestConfig = stream.Config
	// IngestStats is a point-in-time snapshot of ingestion progress.
	IngestStats = stream.Stats
	// HotView is the live top-k influencer view an Ingester (or a
	// ClusterIngester, merged across shards) refreshes with every
	// published checkpoint.
	HotView = stream.HotView
)

// NewIngester opens (or recovers) the state directory and starts the
// live ingestion pipeline. Wire cfg.Publish to a QueryServer for
// in-process hot swap of each checkpoint:
//
//	srv := ipin.NewQueryServer(ipin.ServeConfig{})
//	ing, err := ipin.NewIngester(ipin.IngestConfig{
//		Dir: "state", Omega: 3600, Publish: srv.LoadApprox,
//	})
//	// ... ing.Push(edge) / ing.ServeTCP(l) / ing.Handler() ...
//	defer ing.Close(ctx)
func NewIngester(cfg IngestConfig) (*Ingester, error) { return stream.New(cfg) }

// ParseStreamEdge parses one "src dst time" wire-format line, the
// format the Ingester sources and gennet -stream speak.
func ParseStreamEdge(line string) (Interaction, error) { return stream.ParseEdge(line) }

// Multi-node sharding (internal/cluster): partition the edge stream by
// source node across independent Ingesters and answer queries by
// scatter-gather union of the per-shard sketches. Capacity becomes a
// shard count instead of a box size; see DESIGN.md "Cluster topology
// and shard routing" for the normative contract.
type (
	// ClusterIngester routes edges to per-shard Ingesters by source-node
	// slot (CRC-32C over 16384 slots) and fans forced checkpoints out to
	// all shards.
	ClusterIngester = cluster.Ingester
	// ClusterConfig parameterizes a ClusterIngester: the shard count,
	// the parent state directory, an optional slot map, and the
	// per-shard IngestConfig template.
	ClusterConfig = cluster.Config
	// ClusterSlotMap assigns each of the 16384 routing slots to a shard.
	ClusterSlotMap = cluster.SlotMap
	// ClusterGather is the store shard checkpoints publish into and the
	// scatter-gather query math over it.
	ClusterGather = cluster.Gather
)

// ClusterSlots is the size of the routing keyspace every cluster uses.
const ClusterSlots = cluster.Slots

// NewClusterIngester opens (or recovers) every shard's state directory
// under cfg.Dir and starts the per-shard pipelines:
//
//	cl, err := ipin.NewClusterIngester(ipin.ClusterConfig{
//		Shards: 4, Dir: "state",
//		Stream: ipin.IngestConfig{Omega: 3600, NumNodes: 100_000},
//	})
//	// cl.Push(edge) routes by source slot; queries go through
//	// ipin.NewClusterFrontend(cl.Gather()).
//	defer cl.Close(ctx)
func NewClusterIngester(cfg ClusterConfig) (*ClusterIngester, error) { return cluster.New(cfg) }

// NewClusterFrontend returns the merged HTTP query surface over a
// cluster's gather store: a QueryServer with the exact routes and
// response bodies of a single-node one, result cache and admission
// control included, keyed on the cluster generation, plus
// /cluster/stats.
func NewClusterFrontend(g *ClusterGather) *QueryServer { return cluster.NewFrontend(g) }

// DefaultClusterSlotMap deals the slot space to shards in contiguous
// ranges, the routing a ClusterConfig with a nil Slots selects.
func DefaultClusterSlotMap(shards int) ClusterSlotMap { return cluster.DefaultSlotMap(shards) }

// Replication and failover (internal/repl): a primary streams its WAL
// content over TCP (IREP0001 framing) to replicas that maintain their
// own fold caches and publish read-only checkpoints byte-identical to
// the primary's; on primary loss a controller promotes the most
// caught-up replica, which fences the old lineage by epoch and resumes
// intake at the replicated position. DESIGN.md "Replication and
// failover" (IREP0001) is the normative protocol statement.
type (
	// ReplPrimary accepts replica sessions against a live Ingester: full
	// sync of the sealed checkpoint on attach, then a live tail of framed
	// edge batches with acked positions holding the WAL retention floor.
	ReplPrimary = repl.Primary
	// ReplPrimaryConfig parameterizes a ReplPrimary; Ingester is
	// required.
	ReplPrimaryConfig = repl.PrimaryConfig
	// Replica follows a primary and keeps a byte-identical fold cache;
	// Promote fences the old primary and turns it into a live Ingester.
	Replica = repl.Replica
	// ReplicaConfig parameterizes a Replica; Dir and PrimaryAddr are
	// required.
	ReplicaConfig = repl.ReplicaConfig
	// FailoverController watches a replica set's contact clocks and
	// promotes the most caught-up replica after the primary goes silent.
	FailoverController = repl.Controller
	// FailoverConfig parameterizes a FailoverController; Replicas is
	// required.
	FailoverConfig = repl.ControllerConfig
)

// NewReplicationPrimary starts accepting replica sessions against a
// running Ingester:
//
//	p, err := ipin.NewReplicationPrimary(ipin.ReplPrimaryConfig{
//		Ingester: ing, Addr: ":7070",
//	})
func NewReplicationPrimary(cfg ReplPrimaryConfig) (*ReplPrimary, error) {
	return repl.NewPrimary(cfg)
}

// NewReplica attaches to a primary and follows its stream; wire
// cfg.Publish to a read-only QueryServer so the replica serves while it
// follows:
//
//	rep, err := ipin.NewReplica(ipin.ReplicaConfig{
//		Dir: "replica-state", PrimaryAddr: "primary:7070",
//		Publish: srv.LoadApprox,
//	})
//	// ... on primary loss: rep.Promote(ctx), then rep.Ingester() is
//	// the new intake.
func NewReplica(cfg ReplicaConfig) (*Replica, error) { return repl.NewReplica(cfg) }

// NewFailoverController watches replicas and performs one promotion
// when the primary goes silent past the configured timeout.
func NewFailoverController(cfg FailoverConfig) (*FailoverController, error) {
	return repl.NewController(cfg)
}

// Observability (internal/obs). Telemetry is off by default: every
// instrument is a nil-safe no-op until InstallMetrics runs, so library
// users who never opt in pay only a nil check per instrumented event.
type (
	// MetricsRegistry is a concurrency-safe namespace of counters,
	// gauges, and latency histograms, with Prometheus text-format
	// (WritePrometheus), JSON (WriteJSON), and expvar (PublishExpvar)
	// exposition.
	MetricsRegistry = obs.Registry
	// ProgressEvent is one structured phase progress report.
	ProgressEvent = obs.Event
	// ProgressSink consumes progress events.
	ProgressSink = obs.Sink
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// InstallMetrics points every instrumented package (scan, sketches,
// cascade, selection) at reg. Passing nil uninstalls, restoring the
// free no-op path. Install once at startup, before the work to observe.
func InstallMetrics(reg *MetricsRegistry) {
	core.InstallMetrics(reg)
	vhll.InstallMetrics(reg)
	swhll.InstallMetrics(reg)
	cascade.InstallMetrics(reg)
}

// SetProgressSink installs a sink receiving phase progress events from
// the IRS scans and seed-selection loops; nil uninstalls. TextProgress
// is a ready-made line-per-event sink.
func SetProgressSink(sink ProgressSink) { core.SetProgressSink(sink) }

// TextProgress returns a sink rendering events as single prefixed lines
// on w, safe for concurrent phases.
func TextProgress(w io.Writer, prefix string) ProgressSink { return obs.TextSink(w, prefix) }

// MetricsHandler serves reg in the Prometheus text exposition format —
// mount it at /metrics.
func MetricsHandler(reg *MetricsRegistry) http.Handler { return obs.Handler(reg) }

// InstrumentHTTP wraps next with per-route request counters, an
// in-flight gauge, an error counter, and latency histograms recorded in
// reg. routes is the closed set of URL paths tracked individually;
// other paths fold into route="other". With a nil registry it returns
// next unchanged.
func InstrumentHTTP(reg *MetricsRegistry, routes []string, next http.Handler) http.Handler {
	return obs.Middleware(reg, routes, next)
}

// InstallRuntimeMetrics registers Go runtime telemetry (goroutines, heap
// and total memory, GC cycles and pause distribution, scheduler latency)
// in reg, refreshed at exposition time. Nil-safe; install it on every
// registry a /metrics server exposes.
func InstallRuntimeMetrics(reg *MetricsRegistry) { obs.InstallRuntimeMetrics(reg) }

// End-to-end pipeline tracing (internal/trace): sampled edge traces
// through the live pipeline, a freshness SLO, a structured lifecycle
// journal, and the /debug/pipeline health endpoint. All of it is opt-in
// and nil-safe: an Ingester or QueryServer built without a Tracer or
// Journal pays one nil check per instrumented event.
type (
	// Tracer stamps every Nth accepted edge at each pipeline stage
	// (accept → reorder emit → WAL append/fsync → chunk seal → fold →
	// checkpoint write → publish → serve-visible). Hand one to both
	// IngestConfig.Tracer and ServeConfig.Tracer so traces terminate at
	// the generation swap that makes the edge queryable.
	Tracer = trace.Tracer
	// TraceConfig parameterizes a Tracer; the zero value samples every
	// 1024th edge.
	TraceConfig = trace.Config
	// TraceSLOConfig enables the freshness SLO tracker when Objective>0.
	TraceSLOConfig = trace.SLOConfig
	// TraceJournal is the bounded structured lifecycle-event journal
	// (segment rotations, chunk seals, checkpoints, compaction deletions,
	// snapshot reloads, shed decisions), with an optional JSON-lines
	// sink.
	TraceJournal = trace.Journal
	// TraceJournalConfig parameterizes a TraceJournal.
	TraceJournalConfig = trace.JournalConfig
	// PipelineHealth is the /debug/pipeline HTTP handler: stage
	// latencies, SLO budget, the lifecycle-event tail, recent traces,
	// and caller-supplied status (an Ingester's Health map, say).
	PipelineHealth = trace.Health
)

// NewTracer returns a pipeline tracer. Nil is a valid *Tracer
// everywhere; construct one only when tracing is wanted.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// NewTraceJournal returns a lifecycle-event journal.
func NewTraceJournal(cfg TraceJournalConfig) *TraceJournal { return trace.NewJournal(cfg) }
