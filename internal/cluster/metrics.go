package cluster

import (
	"fmt"

	"ipin/internal/obs"
)

// Cluster metric names. The per-shard series carry a shard label in the
// Prometheus literal-name idiom obs uses (`cluster_shard_edges_total
// {shard="3"}`); the unlabeled series aggregate the whole cluster. The
// shards themselves share the caller's registry, so the stream_* series
// are cluster-wide totals — per-shard attribution lives here.
const (
	MetricShards       = "cluster_shards"
	MetricRouted       = "cluster_edges_routed_total"
	MetricParseErrors  = "cluster_parse_errors_total"
	MetricCheckpoints  = "cluster_checkpoint_rounds_total"
	MetricPublishes    = "cluster_publishes_total"
	MetricMergeBuilds  = "cluster_merge_builds_total"
	MetricMergeQueries = "cluster_merge_queries_total"
	MetricGenSkew      = "cluster_generation_skew"
	MetricShardEdges   = "cluster_shard_edges_total"
	MetricShardGen     = "cluster_shard_generation"
)

// metrics bundles the cluster instruments. Built over a nil registry
// every field is a nil no-op, preserving obs's zero-cost contract.
type metrics struct {
	reg          *obs.Registry // the frontend's serving metrics go here too
	routed       *obs.Counter
	parseErrors  *obs.Counter
	checkpoints  *obs.Counter
	publishes    *obs.Counter
	mergeBuilds  *obs.Counter
	mergeQueries *obs.Counter
	genSkew      *obs.Gauge
	shardEdges   []*obs.Counter
	shardGen     []*obs.Gauge
}

func newMetrics(reg *obs.Registry, shards int) *metrics {
	m := &metrics{
		reg:          reg,
		routed:       reg.Counter(MetricRouted, "Edges routed to a shard by source-node slot."),
		parseErrors:  reg.Counter(MetricParseErrors, "Malformed edge lines skipped by the cluster intake."),
		checkpoints:  reg.Counter(MetricCheckpoints, "Forced all-shard checkpoint rounds completed."),
		publishes:    reg.Counter(MetricPublishes, "Per-shard checkpoint publishes received by the gather store."),
		mergeBuilds:  reg.Counter(MetricMergeBuilds, "Merged summary rebuilds (one per changed generation vector)."),
		mergeQueries: reg.Counter(MetricMergeQueries, "Queries answered by merging per-shard sketches at query time (result-cache misses)."),
		genSkew:      reg.Gauge(MetricGenSkew, "Difference between the most- and least-advanced shard checkpoint generations."),
		shardEdges:   make([]*obs.Counter, shards),
		shardGen:     make([]*obs.Gauge, shards),
	}
	reg.Gauge(MetricShards, "Ingest shards in this cluster.").Set(int64(shards))
	for i := 0; i < shards; i++ {
		m.shardEdges[i] = reg.Counter(fmt.Sprintf("%s{shard=\"%d\"}", MetricShardEdges, i),
			"Edges routed to this shard.")
		m.shardGen[i] = reg.Gauge(fmt.Sprintf("%s{shard=\"%d\"}", MetricShardGen, i),
			"Checkpoint generation this shard last published.")
	}
	return m
}
