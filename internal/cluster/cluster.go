// Package cluster scales the live influence pipeline from one box to N:
// a shard router on the intake side partitions the edge stream by source
// node across independent stream.Ingesters (one WAL, chunk state, and
// checkpoint directory each), and a scatter-gather layer on the serving
// side fans each query out to the per-shard summary tables and merges
// the per-node sketches by union before spread estimation. Capacity
// becomes a shard count instead of a box size.
//
// # Topology
//
// Routing is slot-based, modeled on Redis Cluster: node ids hash onto a
// fixed space of 16384 slots (CRC-32C, the WAL's checksum), and a
// SlotMap assigns every slot to exactly one shard. Every edge (u, v, t)
// goes to the shard owning u's slot, so one shard sees ALL of a source
// node's edges — the invariant the merge semantics below rest on.
//
// # What merging means
//
// Versioned sketches are canonical forms of their inserted (rank,
// timestamp) sets, so per-node union across shards is exact: node u's
// merged sketch is byte-identical to the sketch the owning shard's scan
// built, which in turn is byte-identical to an offline one-pass scan
// over that shard's substream. For streams whose channels never chain
// through an interior node owned elsewhere (in particular any bipartite
// stream, where sources and destinations are disjoint), the merged
// answer is byte-identical to a single-node run over the whole stream,
// for every shard count and every slot map — the property the identity
// tests gate. For streams with cross-shard multi-hop channels the
// per-shard summaries remain exact for each shard's substream, and the
// union is the documented lower-bound composition; DESIGN.md "Cluster
// topology and shard routing" is the normative statement of both cases.
//
// # Wiring
//
//	cl, err := cluster.New(cluster.Config{
//		Shards: 4, Dir: "state",
//		Stream: stream.Config{Omega: 3600, NumNodes: 100_000},
//	})
//	// cl.Push(edge) routes by source slot; cl.Checkpoint(ctx) fans out.
//	fe := cluster.NewFrontend(cl.Gather())
//	http.ListenAndServe(":8080", fe.Handler())
//
// Each shard publishes checkpoints independently into the Gather store;
// queries merge, per shard, the latest published checkpoint. A shard
// that falls behind makes its nodes' answers stale by at most its
// checkpoint lag — never wrong for its own substream — and the
// generation vector (Gather.Generations, /cluster/stats,
// cluster_generation_skew) makes the skew observable.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/stream"
	"ipin/internal/swhll"
)

// Config parameterizes a cluster ingester.
type Config struct {
	// Shards is the number of independent ingest shards; 0 selects 1.
	Shards int
	// Dir is the parent state directory; shard i keeps its WAL, chunk
	// sidecars, and checkpoints in Dir/shard-NNN. Created if missing.
	Dir string
	// Slots maps routing slots to shards; nil selects
	// DefaultSlotMap(Shards). Maps with skewed ownership are legal —
	// identity does not depend on balance, only throughput does.
	Slots SlotMap
	// Stream is the per-shard ingester template: Omega, Precision,
	// NumNodes, Slack, checkpoint cadence, Retain, ProfileWindow/TopK,
	// Registry, Tracer, Journal all apply to every shard. Stream.Dir and
	// Stream.Publish are owned by the cluster and must be unset.
	Stream stream.Config
}

// Ingester is the cluster intake: a slot router in front of Shards
// independent stream ingesters, plus the gather store their checkpoints
// publish into.
type Ingester struct {
	cfg    Config
	slots  SlotMap
	shards []*stream.Ingester
	gather *Gather
	mx     *metrics
}

// New validates the topology, opens (or recovers) every shard's state
// directory, and starts the per-shard pipelines. Recovery is per shard
// and independent: a shard replays its own WAL suffix exactly as a
// single-node ingester would.
func New(cfg Config) (*Ingester, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: Dir is required")
	}
	if cfg.Stream.Dir != "" {
		return nil, fmt.Errorf("cluster: set Dir on the cluster, not the shard template")
	}
	if cfg.Stream.Publish != nil {
		return nil, fmt.Errorf("cluster: shard checkpoints publish into the gather store; Stream.Publish must be nil")
	}
	if cfg.Slots == nil {
		cfg.Slots = DefaultSlotMap(cfg.Shards)
	}
	if err := cfg.Slots.Validate(cfg.Shards); err != nil {
		return nil, err
	}
	mx := newMetrics(cfg.Stream.Registry, cfg.Shards)
	g := newGather(cfg.Shards, mx)
	c := &Ingester{cfg: cfg, slots: cfg.Slots, gather: g, mx: mx,
		shards: make([]*stream.Ingester, cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		scfg := cfg.Stream
		scfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))
		shard := i
		scfg.Publish = func(s *core.ApproxSummaries) { g.publish(shard, s) }
		in, err := stream.New(scfg)
		if err != nil {
			// Unwind the shards already running.
			for j := 0; j < i; j++ {
				_ = c.shards[j].Close(context.Background())
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		c.shards[i] = in
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Ingester) NumShards() int { return len(c.shards) }

// Shard returns shard i's ingester — for per-shard operations (forcing
// one shard's checkpoint, reading one shard's stats) and tests.
func (c *Ingester) Shard(i int) *stream.Ingester { return c.shards[i] }

// Slots returns the slot map the router uses.
func (c *Ingester) Slots() SlotMap { return c.slots }

// Gather returns the store shard checkpoints publish into — hand it to
// NewFrontend for the merged query surface.
func (c *Ingester) Gather() *Gather { return c.gather }

// Route returns the shard that owns source node u.
func (c *Ingester) Route(u graph.NodeID) int { return c.slots.ShardOf(u) }

// Push routes one edge to the shard owning its source slot. It blocks
// only on that shard's intake queue; the other shards are unaffected.
func (c *Ingester) Push(e graph.Interaction) error {
	sh := c.slots.ShardOf(e.Src)
	if err := c.shards[sh].Push(e); err != nil {
		return fmt.Errorf("shard %d: %w", sh, err)
	}
	c.mx.routed.Inc()
	c.mx.shardEdges[sh].Inc()
	return nil
}

// Checkpoint forces a synchronous checkpoint on every shard,
// concurrently, and returns when all have published — after it returns,
// the gather store reflects everything pushed before the call.
func (c *Ingester) Checkpoint(ctx context.Context) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, in := range c.shards {
		wg.Add(1)
		go func(i int, in *stream.Ingester) {
			defer wg.Done()
			if err := in.Checkpoint(ctx); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, in)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.mx.checkpoints.Inc()
	return nil
}

// Close checkpoints and shuts down every shard, concurrently.
func (c *Ingester) Close(ctx context.Context) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, in := range c.shards {
		wg.Add(1)
		go func(i int, in *stream.Ingester) {
			defer wg.Done()
			if err := in.Close(ctx); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, in)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Err returns the first shard's terminal pipeline error, nil while all
// shards run.
func (c *Ingester) Err() error {
	for i, in := range c.shards {
		if err := in.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats returns cluster-wide ingestion counters: sums of the per-shard
// counters, with LastAt the newest timestamp any shard emitted,
// Checkpoints the durable checkpoints and Publishes the publishes across
// shards. ShardStats has the per-shard breakdown.
func (c *Ingester) Stats() stream.Stats {
	var total stream.Stats
	for _, st := range c.ShardStats() {
		total.Accepted += st.Accepted
		total.Emitted += st.Emitted
		total.ReorderDrops += st.ReorderDrops
		total.Checkpoints += st.Checkpoints
		total.Publishes += st.Publishes
		total.CoveredEdges += st.CoveredEdges
		total.DurableEdges += st.DurableEdges
		total.RecoveredChunkEdges += st.RecoveredChunkEdges
		total.RecoveredWALEdges += st.RecoveredWALEdges
		total.RetiredChunks += st.RetiredChunks
		total.RetiredEdges += st.RetiredEdges
		if st.LastAt > total.LastAt {
			total.LastAt = st.LastAt
		}
	}
	return total
}

// ShardStats returns each shard's own counters, indexed by shard.
func (c *Ingester) ShardStats() []stream.Stats {
	out := make([]stream.Stats, len(c.shards))
	for i, in := range c.shards {
		out[i] = in.Stats()
	}
	return out
}

// Health returns the cluster health document: topology, the checkpoint
// generation vector and its skew, and each shard's own health map under
// "shard_N".
func (c *Ingester) Health() map[string]any {
	gens := c.gather.Generations()
	h := map[string]any{
		"shards":          len(c.shards),
		"slot_counts":     c.slots.Counts(len(c.shards)),
		"generations":     gens,
		"generation_skew": generationSkew(gens),
	}
	for i, in := range c.shards {
		h[fmt.Sprintf("shard_%d", i)] = in.Health()
	}
	return h
}

// TopK returns the merged live top-k influencer view, nil until every
// running shard with profiles enabled has published one. Per-node scores
// are exact relative to a single-node run — a node's out-neighborhood
// profile is built entirely from its own edges, which all live on its
// owner — but each shard evaluates its scores at its own watermark, so
// a lagging shard contributes stale rows (see the staleness contract in
// DESIGN.md). CoveredEdges sums across shards; LastAt and RefreshedAt
// are the newest any shard reported.
func (c *Ingester) TopK() *stream.HotView {
	k := c.cfg.Stream.TopK
	if k <= 0 {
		k = 10
	}
	merged := &stream.HotView{}
	var entries []swhll.TopEntry
	views := 0
	for _, in := range c.shards {
		v := in.TopK()
		if v == nil {
			continue
		}
		views++
		entries = append(entries, v.Entries...)
		merged.CoveredEdges += v.CoveredEdges
		if v.LastAt > merged.LastAt {
			merged.LastAt = v.LastAt
		}
		if v.RefreshedAt.After(merged.RefreshedAt) {
			merged.RefreshedAt = v.RefreshedAt
		}
	}
	if views == 0 {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Node < entries[j].Node
	})
	if len(entries) > k {
		entries = entries[:k:k]
	}
	merged.Entries = entries
	return merged
}

// ReadFrom pushes every edge line read from r until EOF, routing each to
// its owner shard — the same wire format as stream.Ingester.ReadFrom.
// Parse errors are counted (cluster_parse_errors_total) and skipped.
func (c *Ingester) ReadFrom(r io.Reader) (int64, error) {
	return stream.ReadLines(r, c.mx.parseErrors, c.Push)
}

// Handler returns the HTTP intake handler: POSTed edge lines are routed
// per line, the response reports how many were accepted — the same
// contract as stream.Ingester.Handler.
func (c *Ingester) Handler() http.Handler {
	return stream.IngestHandler(c.mx.parseErrors, c.Push)
}
