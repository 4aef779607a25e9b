package serve

import (
	"fmt"
	"os"
	"time"

	"ipin/internal/core"
	"ipin/internal/graph"
	"ipin/internal/trace"
)

// View is one immutable summary state a request is answered from. A
// request takes exactly one View and draws its parameter bounds, its
// cache key and its body from it, so no response can mix two states —
// whatever installs or publishes while it runs.
//
// The single-node snapshot (LoadApprox, LoadExact, Reload) is one
// implementation; a cluster's scatter-gather view over per-shard
// summaries (internal/cluster) is the other.
type View interface {
	// Generation identifies the state. It grows with every install and
	// keys the result cache, so a generation never names two states.
	Generation() uint64
	// NumNodes bounds the node ids the routes accept.
	NumNodes() int
	// Omega is the channel-duration bound the summaries were built with,
	// /spreadwindow's default horizon.
	Omega() int64
	// Influence returns |σω(u)| or its estimate.
	Influence(u graph.NodeID) float64
	// Spread returns |⋃ σω(u)| over the seeds or its estimate.
	Spread(seeds []graph.NodeID) float64
	// SpreadBy is Spread counting only channels ending at or before
	// the deadline.
	SpreadBy(seeds []graph.NodeID, deadline graph.Time) float64
	// SpreadWindow is Spread counting only nodes first influenced
	// inside [at, at+horizon−1].
	SpreadWindow(seeds []graph.NodeID, at, horizon int64) (float64, error)
	// TopK selects k seeds greedily (Algorithm 4).
	TopK(k int) ([]graph.NodeID, error)
	// Stats returns the /stats body.
	Stats() (Stats, error)
}

// Stats is the /stats body: summary-level facts only, so it does not
// depend on cache configuration or on how the state is partitioned.
// Fields are in the body's key order; Precision is absent on exact
// summaries.
type Stats struct {
	Entries      int    `json:"entries"`
	Kind         string `json:"kind"`
	Nodes        int    `json:"nodes"`
	Omega        int64  `json:"omega"`
	Precision    int    `json:"precision,omitempty"`
	SummaryBytes int    `json:"summary_bytes"`
}

// ApproxStats is the /stats body of a sketched summary set.
func ApproxStats(s *core.ApproxSummaries) Stats {
	return Stats{
		Entries:      s.EntryCount(),
		Kind:         "approx",
		Nodes:        s.NumNodes(),
		Omega:        s.Omega,
		Precision:    s.Precision,
		SummaryBytes: s.MemoryBytes(),
	}
}

// snapshot is the single-node View: one loaded summary set and its
// generation, never mutated after it is stored. /influence, /spread and
// /topk read the oracle (per-node collapsed sketches, or the exact
// index) built at install; the other routes read the full summaries.
type snapshot struct {
	gen    uint64
	oracle core.Oracle
	approx *core.ApproxSummaries // nil on exact snapshots
	exact  *core.ExactSummaries  // nil on approx snapshots
}

func (s *snapshot) Generation() uint64 { return s.gen }

func (s *snapshot) NumNodes() int { return s.oracle.NumNodes() }

func (s *snapshot) Omega() int64 {
	if s.approx != nil {
		return s.approx.Omega
	}
	return s.exact.Omega
}

func (s *snapshot) Influence(u graph.NodeID) float64 { return s.oracle.InfluenceSize(u) }

func (s *snapshot) Spread(seeds []graph.NodeID) float64 { return s.oracle.Spread(seeds) }

func (s *snapshot) SpreadBy(seeds []graph.NodeID, deadline graph.Time) float64 {
	if s.approx != nil {
		return s.approx.SpreadByEstimate(seeds, deadline)
	}
	return float64(s.exact.SpreadBy(seeds, deadline))
}

// SpreadWindow answers from the approx summaries' versioned staircases.
// Exact summary maps record only the earliest influence time per pair,
// so an exact snapshot answers 409 rather than a silently wrong number.
func (s *snapshot) SpreadWindow(seeds []graph.NodeID, at, horizon int64) (float64, error) {
	if s.approx == nil {
		return 0, errWindowNeedsApprox
	}
	return s.approx.SpreadEstimateWindow(seeds, at, horizon), nil
}

func (s *snapshot) TopK(k int) ([]graph.NodeID, error) { return s.oracle.TopK(k), nil }

func (s *snapshot) Stats() (Stats, error) {
	if s.approx != nil {
		return ApproxStats(s.approx), nil
	}
	return Stats{
		Entries:      s.exact.EntryCount(),
		Kind:         "exact",
		Nodes:        s.exact.NumNodes(),
		Omega:        s.exact.Omega,
		SummaryBytes: s.exact.MemoryBytes(),
	}, nil
}

// LoadApprox installs sketched summaries as the served snapshot. The
// per-node collapse runs before the install, parallel per the
// library-wide worker setting; requests in flight finish on the
// snapshot they took.
func (s *Server) LoadApprox(sum *core.ApproxSummaries) {
	start := time.Now()
	s.install(&snapshot{oracle: core.NewApproxOracle(sum), approx: sum}, "load_approx", start)
}

// LoadExact installs exact summaries as the served snapshot.
func (s *Server) LoadExact(sum *core.ExactSummaries) {
	start := time.Now()
	s.install(&snapshot{oracle: core.NewExactOracle(sum), exact: sum}, "load_exact", start)
}

// Reload re-reads Config.SnapshotPath and swaps the result in atomically.
// It errors when no snapshot path is configured or the file is
// unreadable; the previous snapshot keeps serving in every error case.
func (s *Server) Reload() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	start := time.Now()
	f, err := os.Open(s.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	defer f.Close()
	exact, approx, err := core.ReadSummaries(f)
	if err != nil {
		return fmt.Errorf("snapshot %s: %v", s.cfg.SnapshotPath, err)
	}
	if exact != nil {
		s.install(&snapshot{oracle: core.NewExactOracle(exact), exact: exact}, "reload", start)
	} else {
		s.install(&snapshot{oracle: core.NewApproxOracle(approx), approx: approx}, "reload", start)
	}
	return nil
}

// install stamps snap with the next generation and makes it the served
// snapshot, then runs the bookkeeping: old cache entries can never be
// served again (keys embed the generation), so drop them eagerly, count
// the reload, wake WaitGeneration callers, and — the install being the
// moment the new data became queryable — stamp waiting trace records
// serve-visible.
func (s *Server) install(snap *snapshot, cause string, start time.Time) {
	s.loadMu.Lock()
	snap.gen = 1
	if prev := s.snap.Load(); prev != nil {
		snap.gen = prev.gen + 1
	}
	s.snap.Store(snap)
	s.loadMu.Unlock()

	s.cache.purge()
	s.mx.reloads.Inc()
	s.mx.generation.Set(int64(snap.gen))
	s.genMu.Lock()
	close(s.genCh)
	s.genCh = make(chan struct{})
	s.genMu.Unlock()
	s.cfg.Tracer.StampVisible()
	s.cfg.Journal.Record(trace.EventSnapshotReload, cause, time.Since(start), map[string]any{
		"generation": snap.gen,
	})
}
